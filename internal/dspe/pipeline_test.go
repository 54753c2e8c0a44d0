package dspe

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slb/internal/core"
)

func pipeCfg() PipelineConfig {
	return PipelineConfig{Core: core.Config{Seed: 5}, QueueLen: 32}
}

func TestPipelineValidation(t *testing.T) {
	gen := zipfGen(1.0, 50, 100)
	if _, err := NewPipeline(gen, 1).Run(pipeCfg()); err == nil {
		t.Error("empty pipeline accepted")
	}
	p := NewPipeline(gen, 1).AddStage("x", 2, "BOGUS", 0, func(string, func(string)) {})
	if _, err := p.Run(pipeCfg()); err == nil {
		t.Error("unknown grouping accepted")
	}
	for _, f := range []func(){
		func() { NewPipeline(gen, 0) },
		func() { NewPipeline(gen, 1).AddStage("x", 0, "SG", 0, func(string, func(string)) {}) },
		func() { NewPipeline(gen, 1).AddStage("x", 1, "SG", 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPipelineSingleStageConservation(t *testing.T) {
	gen := zipfGen(1.2, 100, 5000)
	var processed atomic.Int64
	p := NewPipeline(gen, 3).AddStage("count", 4, "PKG", 0,
		func(key string, emit func(string)) { processed.Add(1) })
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 5000 || processed.Load() != 5000 {
		t.Fatalf("emitted %d, processed %d", res.Emitted, processed.Load())
	}
	if len(res.Stages) != 1 || res.Stages[0].Processed != 5000 {
		t.Fatalf("stage results %+v", res.Stages)
	}
}

func TestPipelineTwoStagesFanOut(t *testing.T) {
	// Stage 1 splits each tuple into 3 downstream tuples; stage 2 counts.
	gen := zipfGen(1.5, 200, 2000)
	var counted atomic.Int64
	p := NewPipeline(gen, 2).
		AddStage("split", 3, "SG", 0, func(key string, emit func(string)) {
			for i := 0; i < 3; i++ {
				emit(key + "-" + string(rune('a'+i)))
			}
		}).
		AddStage("count", 4, "D-C", 0, func(key string, emit func(string)) {
			counted.Add(1)
		})
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if counted.Load() != 3*2000 {
		t.Fatalf("counted %d, want 6000", counted.Load())
	}
	if res.Stages[1].Processed != 6000 {
		t.Fatalf("stage 2 processed %d", res.Stages[1].Processed)
	}
	if res.P50 <= 0 {
		t.Fatalf("p50 = %v", res.P50)
	}
}

func TestPipelineKGStageDeterministic(t *testing.T) {
	// The StageFunc API deliberately hides executor identity, so check
	// the KG invariant through the public loads: two identical runs must
	// produce an identical per-executor split (hashing is seed-fixed and
	// KG is load-independent).
	run := func() []int64 {
		gen := zipfGen(1.0, 30, 3000)
		q := NewPipeline(gen, 2).
			AddStage("route", 3, "SG", 0, func(key string, emit func(string)) { emit(key) }).
			AddStage("stateful", 5, "KG", 0, func(key string, emit func(string)) {})
		res, err := q.Run(pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[1].Loads
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("KG stage loads not deterministic: %v vs %v", a, b)
		}
	}
}

func TestPipelineImbalanceOrdering(t *testing.T) {
	// A skewed stream through KG vs W-C on the final edge: W-C must be
	// far better balanced.
	imbWith := func(grouping string) float64 {
		gen := zipfGen(2.0, 500, 20000)
		p := NewPipeline(gen, 2).
			AddStage("pass", 2, "SG", 0, func(key string, emit func(string)) { emit(key) }).
			AddStage("agg", 10, grouping, 0, func(string, func(string)) {})
		res, err := p.Run(pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[1].Imbalance
	}
	kg, wc := imbWith("KG"), imbWith("W-C")
	if wc > kg/5 {
		t.Fatalf("pipeline W-C (%f) should beat KG (%f)", wc, kg)
	}
}

func TestPipelineServiceTimeShowsInLatency(t *testing.T) {
	gen := zipfGen(1.0, 20, 200)
	p := NewPipeline(gen, 1).
		AddStage("slow", 2, "SG", 2*time.Millisecond, func(string, func(string)) {})
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 < 2*time.Millisecond {
		t.Fatalf("p50 %v below stage service time", res.P50)
	}
}

func TestPipelineMessagesCap(t *testing.T) {
	gen := zipfGen(1.0, 20, 100000)
	cfg := pipeCfg()
	cfg.Messages = 777
	p := NewPipeline(gen, 2).AddStage("leaf", 2, "SG", 0, func(string, func(string)) {})
	res, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 777 {
		t.Fatalf("emitted %d", res.Emitted)
	}
}

func TestPipelineStageNames(t *testing.T) {
	gen := zipfGen(1.0, 20, 100)
	p := NewPipeline(gen, 1).
		AddStage("alpha", 1, "SG", 0, func(k string, e func(string)) { e(k) }).
		AddStage("beta", 1, "SG", 0, func(string, func(string)) {})
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(res.Stages))
	for i, s := range res.Stages {
		names[i] = s.Name
	}
	if strings.Join(names, ",") != "alpha,beta" {
		t.Fatalf("stage names %v", names)
	}
}

// TestPipelineWindowedAggregateExact runs the canonical two-phase
// topology — D-C partial aggregation, KG reduce — and checks that the
// merged finals reproduce exact per-(window, key) counts.
func TestPipelineWindowedAggregateExact(t *testing.T) {
	const (
		m          = 10_000
		windowSize = 1_000
	)
	gen := zipfGen(1.5, 200, m)
	truth := aggGroundTruth(gen, windowSize)

	var mu sync.Mutex
	got := make(map[int64]map[string]int64)
	p := NewPipeline(gen, 2).
		AddWindowedAggregate("partial", 4, "D-C", windowSize).
		AddWeightedStage("reduce", 2, "KG", 0, func(key string, window, count int64, _ func(string, int64)) {
			mu.Lock()
			mm := got[window]
			if mm == nil {
				mm = make(map[string]int64)
				got[window] = mm
			}
			mm[key] += count
			mu.Unlock()
		})
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != m {
		t.Fatalf("emitted %d of %d", res.Emitted, m)
	}
	for w, wantKeys := range truth {
		for k, want := range wantKeys {
			if got[w][k] != want {
				t.Fatalf("window %d key %q: got %d, want %d", w, k, got[w][k], want)
			}
		}
		if len(got[w]) != len(wantKeys) {
			t.Fatalf("window %d: got %d keys, want %d", w, len(got[w]), len(wantKeys))
		}
	}
	if len(got) != len(truth) {
		t.Fatalf("got %d windows, want %d", len(got), len(truth))
	}

	agg := res.Stages[0]
	if agg.AggWindows < m/windowSize {
		t.Fatalf("aggregate stage closed %d windows, want ≥ %d", agg.AggWindows, m/windowSize)
	}
	// The reduce stage processed exactly the partial tuples the
	// aggregate stage emitted.
	if res.Stages[1].Processed != agg.AggPartials {
		t.Fatalf("reduce processed %d, aggregate emitted %d", res.Stages[1].Processed, agg.AggPartials)
	}
	// Replication lower bound: at least one partial per (window, key).
	var distinct int64
	for _, keys := range truth {
		distinct += int64(len(keys))
	}
	if agg.AggPartials < distinct {
		t.Fatalf("partials %d below distinct (window,key) count %d", agg.AggPartials, distinct)
	}
	if res.Stages[1].AggPartials != 0 {
		t.Fatalf("non-aggregate stage reports %d partials", res.Stages[1].AggPartials)
	}
}

// TestPipelineLeafAggregate: a windowed aggregate as the leaf stage
// still counts its partials (they are discarded, not sent).
func TestPipelineLeafAggregate(t *testing.T) {
	const m = 5_000
	gen := zipfGen(1.2, 100, m)
	p := NewPipeline(gen, 2).AddWindowedAggregate("agg", 3, "PKG", 500)
	res, err := p.Run(pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[0].Processed != m {
		t.Fatalf("processed %d of %d", res.Stages[0].Processed, m)
	}
	if res.Stages[0].AggPartials == 0 || res.Stages[0].AggWindows < m/500 {
		t.Fatalf("agg stats missing: %+v", res.Stages[0])
	}
}

// TestPipelinePlainStagePreservesWeight: a plain StageFunc stage
// between the aggregate and reduce stages relabels partial tuples
// without collapsing their counts.
func TestPipelinePlainStagePreservesWeight(t *testing.T) {
	const m = 4_000
	gen := zipfGen(1.0, 50, m)
	var got int64
	p := NewPipeline(gen, 2).
		AddWindowedAggregate("partial", 3, "PKG", 500).
		AddStage("relabel", 2, "SG", 0, func(key string, emit func(string)) {
			emit("x:" + key)
		}).
		AddWeightedStage("sum", 1, "KG", 0, func(_ string, _, count int64, _ func(string, int64)) {
			got += count
		})
	if _, err := p.Run(pipeCfg()); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("summed weight %d, want %d (plain stage must pass weights through)", got, m)
	}
}

// TestPipelineRingDataplaneParity runs the same two-phase aggregation
// pipeline (windowed aggregate → KG reduce) on both dataplanes and
// checks the reduced per-(window, key) counts against the stream's
// ground truth — and therefore against each other — exactly.
func TestPipelineRingDataplaneParity(t *testing.T) {
	const (
		m          = 10_000
		windowSize = 1_000
	)
	truth := aggGroundTruth(zipfGen(1.5, 200, m), windowSize)

	for _, dp := range []Dataplane{DataplaneChannel, DataplaneRing} {
		name := "channel"
		if dp == DataplaneRing {
			name = "ring"
		}
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			got := make(map[int64]map[string]int64)
			p := NewPipeline(zipfGen(1.5, 200, m), 2).
				AddWindowedAggregate("partial", 4, "D-C", windowSize).
				AddWeightedStage("reduce", 2, "KG", 0, func(key string, window, count int64, _ func(string, int64)) {
					mu.Lock()
					mm := got[window]
					if mm == nil {
						mm = make(map[string]int64)
						got[window] = mm
					}
					mm[key] += count
					mu.Unlock()
				})
			res, err := p.Run(PipelineConfig{Core: core.Config{Seed: 5}, QueueLen: 32, Dataplane: dp})
			if err != nil {
				t.Fatal(err)
			}
			if res.Emitted != m {
				t.Fatalf("emitted %d of %d", res.Emitted, m)
			}
			if len(got) != len(truth) {
				t.Fatalf("got %d windows, want %d", len(got), len(truth))
			}
			for w, wantKeys := range truth {
				if len(got[w]) != len(wantKeys) {
					t.Fatalf("window %d: got %d keys, want %d", w, len(got[w]), len(wantKeys))
				}
				for k, want := range wantKeys {
					if got[w][k] != want {
						t.Fatalf("window %d key %q: got %d, want %d", w, k, got[w][k], want)
					}
				}
			}
			if res.Stages[1].Processed != res.Stages[0].AggPartials {
				t.Fatalf("reduce processed %d, aggregate emitted %d", res.Stages[1].Processed, res.Stages[0].AggPartials)
			}
		})
	}
}

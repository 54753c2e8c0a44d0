package tracefile

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/stream"
	"slb/internal/workload"
)

// record encodes a value-bearing trace of the workload into memory and
// returns a fresh replay generator per call.
func record(t *testing.T, m int64) func() *BytesGenerator {
	t.Helper()
	gen := stream.WithValues(workload.NewZipf(1.4, 200, m, 17), traceVals)
	var buf bytes.Buffer
	if _, err := Write(&buf, gen); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return func() *BytesGenerator {
		g, err := NewBytesGenerator(data)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestReplayFeedsEventsimMerger pins the sampling contract end to end
// on the deterministic engine: a version-2 replay with no AggValue hook
// merges the RECORDED values, producing exactly the finals a hook
// computing the same function would — and not the constant-1 fallback.
func TestReplayFeedsEventsimMerger(t *testing.T) {
	const m = 10000
	replay := record(t, m)
	run := func(hook func(string, int64) int64) []aggregation.Final {
		var finals []aggregation.Final
		cfg := eventsim.Config{
			Workers: 6, Sources: 3, Algorithm: "W-C",
			Core: core.Config{Seed: 17}, ServiceTime: 1.0,
			AggWindow: 500, AggShards: 2,
			AggMerger: aggregation.SumMerger, AggValue: hook,
			OnFinal: func(f aggregation.Final) { finals = append(finals, f) },
		}
		if _, err := eventsim.Run(replay(), cfg); err != nil {
			t.Fatal(err)
		}
		return finals
	}
	recorded := run(nil)
	hooked := run(traceVals) // the function the trace recorded
	if !reflect.DeepEqual(recorded, hooked) {
		t.Fatal("recorded-value replay disagrees with the equivalent AggValue hook")
	}
	var countSum, valueSum int64
	for _, f := range recorded {
		countSum += f.Count
		valueSum += f.Value
	}
	if countSum != m {
		t.Fatalf("finals count %d, want %d", countSum, m)
	}
	if valueSum == countSum {
		t.Fatal("merged values equal counts: replay fell back to the constant 1")
	}
}

// TestReplayFeedsDspeMerger runs the wall-clock engine on both
// dataplanes over the same recorded trace and checks the merged sums
// match a single-pass ground truth over the trace's (key, value) pairs.
func TestReplayFeedsDspeMerger(t *testing.T) {
	const (
		m      = 6000
		window = 500
	)
	replay := record(t, m)

	type fk struct {
		w int64
		k string
	}
	truth := map[fk]int64{}
	g := replay()
	keys := make([]string, 256)
	vals := make([]int64, 256)
	var pos int64
	for {
		n := g.NextBatchValues(keys, vals)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			truth[fk{pos / window, keys[i]}] += vals[i]
			pos++
		}
	}

	for _, tr := range []dspe.Transport{dspe.TransportMemory, dspe.TransportTCP} {
		got := map[fk]int64{}
		var mu sync.Mutex
		res, err := dspe.Run(replay(), dspe.Config{
			Workers: 4, Sources: 2, Algorithm: "W-C",
			Core: core.Config{Seed: 17}, Transport: tr,
			AggWindow: window, AggShards: 2,
			AggMerger: aggregation.SumMerger,
			OnFinal: func(f aggregation.Final) {
				mu.Lock()
				got[fk{f.Window, f.Key}] += f.Value
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.AggTotal != m {
			t.Fatalf("transport %v: finals count to %d, want %d", tr, res.AggTotal, m)
		}
		if !reflect.DeepEqual(got, truth) {
			t.Fatalf("transport %v: merged sums diverge from the recorded trace", tr)
		}
	}
}

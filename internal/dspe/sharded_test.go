package dspe

import (
	"sync"
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/workload"
)

// TestShardedReducerRecoversThroughput is the wall-clock half of the
// R-sweep acceptance criterion: with a simulated per-partial merge
// cost making the reduce stage the bottleneck, sharding it 4 ways must
// recover a large fraction of the lost throughput (the deterministic
// half, including the exact util thresholds, lives in
// internal/eventsim's TestShardedReducerMovesSaturation).
func TestShardedReducerRecoversThroughput(t *testing.T) {
	const m = 20000
	// run returns the result and the throughput over the whole Run
	// call: Result.Throughput stops at the bolts' drain, before the
	// reducers have merged the windows buffered on their links.
	run := func(r int) (Result, float64) {
		gen := workload.NewZipf(1.4, 2000, m, 23)
		t0 := time.Now()
		res, err := Run(gen, Config{
			Workers: 16, Sources: 4, Algorithm: "W-C",
			Core: core.Config{Seed: 7}, ServiceTime: 0,
			AggWindow: 500, AggShards: r,
			AggMergeCost: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, float64(res.Completed) / time.Since(t0).Seconds()
	}
	r1, thr1 := run(1)
	r4, thr4 := run(4)
	t.Logf("R=1 %.0f msgs/s, R=4 %.0f msgs/s (%.2fx); %d partials merged", thr1, thr4, thr4/thr1, r1.Agg.Partials)
	for _, res := range []Result{r1, r4} {
		if res.AggTotal != m {
			t.Fatalf("finals sum to %d, want %d", res.AggTotal, m)
		}
		if res.Agg.Late != 0 {
			t.Fatalf("late corrections %d, want 0 (per-shard completeness close)", res.Agg.Late)
		}
	}
	if r1.AggReducerUtil < 0.9 {
		t.Fatalf("R=1 reducer util %.3f, want ≥ 0.9 (the merge cost must make the reducer the bottleneck)", r1.AggReducerUtil)
	}
	// ~4.1k combined partials × 100 µs ≈ 410 ms of merge work: serialized
	// at R=1, quartered at R=4. The cost is high enough that the merge
	// work still dominates the run at R=4 under the race detector, which
	// slows the engine several-fold but not the simulated merge sleep.
	// The measured speedup is ≈ 3.3× on a 2-core host (≥ 2.1× under
	// -race); assert 1.7× to stay robust on slow CI hosts.
	if thr4 < 1.7*thr1 {
		t.Errorf("R=4 throughput %.0f not ≥ 1.7× R=1's %.0f: sharding is not parallelizing the reduce stage",
			thr4, thr1)
	}
	if !(r4.AggReducerUtilMean < r1.AggReducerUtilMean) {
		t.Errorf("mean shard util did not drop: R=4 %.3f vs R=1 %.3f", r4.AggReducerUtilMean, r1.AggReducerUtilMean)
	}
	if r4.AggReducerUtilMean > r4.AggReducerUtil {
		t.Errorf("mean shard util %.3f above max %.3f", r4.AggReducerUtilMean, r4.AggReducerUtil)
	}
}

// TestShardedAggregationExact: sharding the reduce stage changes its
// topology, not its results — finals against a single-node ground
// truth, for several shard counts and a non-trivial merger, with
// OnFinal arriving pre-serialized across shard goroutines.
func TestShardedAggregationExact(t *testing.T) {
	const (
		m      = 12000
		window = 500
	)
	sample := func(key string, seq int64) int64 { return int64(len(key)) + seq%11 }
	type fk struct {
		w int64
		k string
	}
	// Single-node ground truth for count and sum.
	truthCount := map[fk]int64{}
	truthSum := map[fk]int64{}
	gen := workload.NewZipf(1.6, 300, m, 31)
	var idx int64
	for {
		k, ok := gen.Next()
		if !ok {
			break
		}
		id := fk{idx / window, k}
		truthCount[id]++
		truthSum[id] += sample(k, idx)
		idx++
	}

	for _, shards := range []int{2, 4} {
		got := map[fk]aggregation.Final{}
		var mu sync.Mutex
		res, err := Run(workload.NewZipf(1.6, 300, m, 31), Config{
			Workers: 8, Sources: 3, Algorithm: "D-C",
			Core: core.Config{Seed: 31}, ServiceTime: 0,
			AggWindow: window, AggShards: shards,
			AggMerger: aggregation.SumMerger, AggValue: sample,
			OnFinal: func(f aggregation.Final) {
				// OnFinal is serialized by the engine; the mutex only
				// pairs this goroutine's writes with the post-Run reads.
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[fk{f.Window, f.Key}]; dup {
					t.Errorf("(window %d, key %q) finalized twice", f.Window, f.Key)
				}
				got[fk{f.Window, f.Key}] = f
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.AggTotal != m {
			t.Fatalf("R=%d: finals sum to %d, want %d", shards, res.AggTotal, m)
		}
		if len(got) != len(truthCount) {
			t.Fatalf("R=%d: %d finals, want %d", shards, len(got), len(truthCount))
		}
		for id, want := range truthCount {
			f := got[id]
			if f.Count != want || f.Value != truthSum[id] {
				t.Fatalf("R=%d (window %d, key %q): count/value %d/%d, want %d/%d",
					shards, id.w, id.k, f.Count, f.Value, want, truthSum[id])
			}
		}
	}
}

// TestPipelineWindowedMergeSum: the merger-pluggable aggregate stage
// sums tuple WEIGHTS per (window, key) — upstream weighted emissions
// flow through a D-C-split merge stage and reassemble exactly at a
// key-grouped reduce stage, matching a single-node ground truth.
func TestPipelineWindowedMergeSum(t *testing.T) {
	const (
		m      = 6000
		window = 500
	)
	keys := make([]string, m)
	gen := workload.NewZipf(1.5, 120, m, 17)
	for i := range keys {
		k, _ := gen.Next()
		keys[i] = k
	}
	// Per-tuple weight derived from the key alone, so the ground truth
	// is independent of executor interleaving.
	weight := func(key string) int64 { return int64(len(key)%4) + 1 }

	truth := map[string]int64{}
	var wantTotal int64
	for _, k := range keys {
		truth[k] += weight(k)
		wantTotal += weight(k)
	}

	var mu sync.Mutex
	got := map[string]int64{}
	var gotTotal int64
	p := NewPipeline(stream.FromSlice(keys), 2).
		// Weighted source stage: stamps each tuple's weight from its key.
		AddWeightedStage("weigh", 3, "SG", 0,
			func(key string, _ int64, _ int64, emit func(string, int64)) {
				emit(key, weight(key))
			}).
		AddWindowedMerge("sum-partial", 4, "D-C", window, aggregation.SumMerger).
		AddWeightedStage("merge", 2, "KG", 0,
			func(key string, _ int64, count int64, _ func(string, int64)) {
				mu.Lock()
				got[key] += count
				gotTotal += count
				mu.Unlock()
			})
	res, err := p.Run(PipelineConfig{Core: core.Config{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != m {
		t.Fatalf("emitted %d, want %d", res.Emitted, m)
	}
	if gotTotal != wantTotal {
		t.Fatalf("merged weight total %d, want %d", gotTotal, wantTotal)
	}
	if len(got) != len(truth) {
		t.Fatalf("%d distinct keys merged, want %d", len(got), len(truth))
	}
	for k, want := range truth {
		if got[k] != want {
			t.Fatalf("key %q: summed weight %d, want %d", k, got[k], want)
		}
	}
	// The merge stage emitted one weighted tuple per (window, key)
	// partial; its AggPartials accounting must reflect real flushes.
	if agg := res.Stages[1]; agg.AggPartials == 0 || agg.AggWindows == 0 {
		t.Errorf("merge stage reported no aggregation activity: %+v", agg)
	}
}

package experiments

import (
	"fmt"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// Aggregation-overhead experiment parameters. The paper's evaluation
// measures only the balance side of key splitting; its Section II
// discussion (and the PKG paper's analysis) prices the other side — the
// aggregation phase whose traffic and memory grow with the per-key
// replication factor. This experiment measures that side end to end on
// both engines: n=16 workers, s=8 sources, z=1.4 (skewed enough that
// D-C/W-C split the head, tame enough that D-C stays below W-C's d=n).
const (
	aggWorkers = 16
	aggSources = 8
	aggSkew    = 1.4
)

// aggMessages is m for the aggregation sweep at each scale.
func (s Scale) aggMessages() int64 {
	switch s {
	case Full:
		return 1_000_000
	case Default:
		return 200_000
	default:
		return 30_000
	}
}

// aggWindowDivisors sweep the tumbling window size as fractions of the
// stream: m/50 (many small windows), m/10, m/4 (few large windows).
// Larger windows amortize replication better per message — a key that
// recurs within the window costs one partial either way — so the
// messages-per-window column grows sublinearly for KG and superlinearly
// in replication for W-C.
var aggWindowDivisors = []int64{50, 10, 4}

// aggFlushCosts sweeps the per-partial flush cost (ms, against the 1 ms
// service time) at the smallest window: the knob that prices the
// aggregation phase. The reducer's merge cost follows it (AggFlushCost/4
// by default), so the sweep walks the reducer station from negligible
// to past saturation.
var aggFlushCosts = []float64{0.1, 0.5, 2.0}

// aggShardCounts sweeps R, the reduce stage's shard count, at the
// saturating flush cost: the knob that moves the reducer saturation
// point (stage capacity = R/AggMergeCost partials per ms).
var aggShardCounts = []int{1, 2, 4, 8}

// aggSaturatingFlush is the flush cost (ms) at which PR 3 found the
// single reducer station saturated for W-Choices (util ≈ 1, throughput
// collapsed); the R sweep runs there.
const aggSaturatingFlush = 2.0

// aggFreeMerge is the merge cost (ms) of the reducer-UNCONSTRAINED
// baseline the R sweep's recovery column is measured against: low
// enough that the station never binds, but not ≈ 0 — the closed-form
// station queue is sized in time (AggQueueLen × AggMergeCost), so a
// vanishing merge cost would model a zero-capacity queue instead of a
// free one.
const aggFreeMerge = 0.1

// AggregationOverhead tabulates the cost of the two-phase windowed
// aggregation for KG, PKG, D-C, W-C and SG across three window sizes:
// throughput with aggregation on, the throughput delta vs the same
// topology without aggregation, aggregation messages per window, the
// measured state replication factor (distinct (window, key, worker)
// triples per (window, key) — exactly 1 for KG), the reducer's
// peak memory in live entries, and the reducer's utilization as a
// service station. Five tables: the deterministic discrete-event
// engine (host-independent numbers), the goroutine runtime (wall
// clock), an AggFlushCost sweep on the discrete-event engine that
// maps the operating region where the balance-friendly schemes' extra
// partials cost more than their balance gains (as flush/merge cost
// grows, the reducer saturates for the high-replication schemes first
// — W-C, then D-C — and their throughput advantage over KG inverts),
// and two AggShards sweeps (eventsim and dspe) at the saturating flush
// cost showing the reducer saturation point move with R: sharding the
// reduce stage by key digest recovers the throughput the saturated
// station was costing, while the worker-side flush bill — paid
// identically at every R — remains.
// Qualitative ordering, both engines: KG pays zero replication
// overhead, PKG ≈ 2 choices' worth, D-C more, W-C the most; SG
// replicates every key everywhere it lands. Note that the reducer's
// FINAL state dedupes to distinct (window, key) regardless of
// algorithm — replication is paid in traffic (msgs/window), merge work
// and reducer-station occupancy, and in worker-side partial state, not
// in reducer cardinality.
func AggregationOverhead(sc Scale) ([]*texttab.Table, error) {
	m := sc.aggMessages()
	cols := []string{"window", "algo", "events/s", "Δthr%", "msgs/window", "replication", "reducer-peak", "late", "red-util"}

	evt := texttab.New(fmt.Sprintf(
		"Aggregation overhead (eventsim, deterministic): n=%d, s=%d, z=%.1f, m=%d",
		aggWorkers, aggSources, aggSkew, m), cols...)
	// Per-algorithm baseline throughput without aggregation (window-
	// independent, run once).
	evtRun := func(algo string, win int64, flushCost float64) (eventsim.Result, error) {
		return evtRunSharded(m, algo, win, flushCost, 0, 1)
	}
	evtBase := make(map[string]float64)
	for _, algo := range clusterAlgos {
		res, err := evtRun(algo, 0, 0)
		if err != nil {
			return nil, err
		}
		evtBase[algo] = res.Throughput
	}
	for _, div := range aggWindowDivisors {
		win := m / div
		for _, algo := range clusterAlgos {
			res, err := evtRun(algo, win, 0)
			if err != nil {
				return nil, err
			}
			evt.Add(aggRow(win, algo, res.Throughput, evtBase[algo], res.Agg.Partials, res.Agg, res.AggReplication, res.ReducerUtil)...)
		}
	}

	live := texttab.New(fmt.Sprintf(
		"Aggregation overhead (dspe goroutine runtime, wall clock): n=%d, s=%d, z=%.1f, m=%d",
		aggWorkers, aggSources, aggSkew, m), cols...)
	liveRun := func(algo string, win int64) (dspe.Result, error) {
		gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
		return dspe.Run(gen, dspe.Config{
			Workers:   aggWorkers,
			Sources:   aggSources,
			Algorithm: algo,
			Core:      core.Config{Seed: Seed, Epsilon: Epsilon},
			// No artificial service delay: wall-clock throughput here is
			// engine-bound, so the flush work itself is the visible cost.
			ServiceTime: 0,
			Window:      64,
			AggWindow:   win,
		})
	}
	liveBase := make(map[string]float64)
	for _, algo := range clusterAlgos {
		res, err := liveRun(algo, 0)
		if err != nil {
			return nil, err
		}
		liveBase[algo] = res.Throughput
	}
	for _, div := range aggWindowDivisors {
		win := m / div
		for _, algo := range clusterAlgos {
			res, err := liveRun(algo, win)
			if err != nil {
				return nil, err
			}
			// The traffic column counts what the bolts flushed: the
			// shard roots merge it down to one partial per (window, key)
			// for every algorithm before the reducers see it.
			live.Add(aggRow(win, algo, res.Throughput, liveBase[algo], res.AggBoltPartials, res.Agg, res.AggReplication, res.AggReducerUtil)...)
		}
	}

	// Flush-cost sweep at the smallest window (the partial-heaviest
	// regime): where does the aggregation phase eat the balance gain?
	sweepWin := m / aggWindowDivisors[0]
	sweep := texttab.New(fmt.Sprintf(
		"AggFlushCost sweep (eventsim): n=%d, s=%d, z=%.1f, m=%d, window=%d, merge=flush/4",
		aggWorkers, aggSources, aggSkew, m, sweepWin),
		"flush-ms", "algo", "events/s", "Δthr%", "replication", "red-util", "red-peakq")
	for _, fc := range aggFlushCosts {
		for _, algo := range clusterAlgos {
			res, err := evtRun(algo, sweepWin, fc)
			if err != nil {
				return nil, err
			}
			delta := 0.0
			if base := evtBase[algo]; base > 0 {
				delta = 100 * (1 - res.Throughput/base)
			}
			sweep.Add(
				fmt.Sprintf("%.2f", fc),
				algo,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.1f", delta),
				fmt.Sprintf("%.4f", res.AggReplication),
				fmt.Sprintf("%.3f", res.ReducerUtil),
				fmt.Sprintf("%d", res.ReducerPeakQueue),
			)
		}
	}

	rsweepEvt, err := shardSweepEventsim(m, sweepWin, evtBase)
	if err != nil {
		return nil, err
	}
	rsweepLive, err := shardSweepLive(m)
	if err != nil {
		return nil, err
	}
	return []*texttab.Table{evt, live, sweep, rsweepEvt, rsweepLive}, nil
}

// evtRunSharded runs the discrete-event engine at the experiment's
// fixed deployment with the given aggregation knobs (mergeCost 0 means
// the engine default, AggFlushCost/4).
func evtRunSharded(m int64, algo string, win int64, flushCost, mergeCost float64, shards int) (eventsim.Result, error) {
	gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
	return eventsim.Run(gen, eventsim.Config{
		Workers:      aggWorkers,
		Sources:      aggSources,
		Algorithm:    algo,
		Core:         core.Config{Seed: Seed, Epsilon: Epsilon},
		ServiceTime:  1.0,
		Window:       100,
		Messages:     m,
		AggWindow:    win,
		AggFlushCost: flushCost,
		AggMergeCost: mergeCost,
		AggShards:    shards,
		MeasureAfter: m / 5,
	})
}

// shardSweepEventsim sweeps the reduce stage's shard count R at the
// saturating flush cost on the deterministic engine. The sat-recov%
// column is the fraction of the REDUCER-SATURATION loss R recovers:
// (thr(R) − thr(1)) / (thrFree − thr(1)), where thrFree is the same
// run with an unconstrained reduce stage (merge = aggFreeMerge). The
// worker-side AggFlushCost bill is paid identically at every R — it is
// the splitting scheme's own cost, not the reducer's — so it is
// excluded from what sharding is asked to recover; the Δthr% column
// still shows the full loss against the no-aggregation baseline.
func shardSweepEventsim(m, win int64, base map[string]float64) (*texttab.Table, error) {
	tab := texttab.New(fmt.Sprintf(
		"AggShards sweep (eventsim): flush=%.1fms (saturating), window=%d, n=%d, s=%d, z=%.1f, m=%d; recovery vs reducer-free (merge=%.1fms)",
		aggSaturatingFlush, win, aggWorkers, aggSources, aggSkew, m, aggFreeMerge),
		"R", "algo", "events/s", "Δthr%", "sat-recov%", "red-util", "red-util-mean", "red-peakq")
	algos := []string{"KG", "D-C", "W-C"}
	for _, algo := range algos {
		free, err := evtRunSharded(m, algo, win, aggSaturatingFlush, aggFreeMerge, 1)
		if err != nil {
			return nil, err
		}
		var thr1 float64
		for _, r := range aggShardCounts {
			res, err := evtRunSharded(m, algo, win, aggSaturatingFlush, 0, r)
			if err != nil {
				return nil, err
			}
			if r == 1 {
				thr1 = res.Throughput
			}
			delta := 0.0
			if b := base[algo]; b > 0 {
				delta = 100 * (1 - res.Throughput/b)
			}
			recov := "n/a"
			if lost := free.Throughput - thr1; lost > 0.005*free.Throughput {
				recov = fmt.Sprintf("%.1f", 100*(res.Throughput-thr1)/lost)
			}
			tab.Add(
				fmt.Sprintf("%d", r),
				algo,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.1f", delta),
				recov,
				fmt.Sprintf("%.3f", res.ReducerUtil),
				fmt.Sprintf("%.3f", res.ReducerUtilMean),
				fmt.Sprintf("%d", res.ReducerPeakQueue),
			)
		}
	}
	return tab, nil
}

// liveSweepMergeCost is the simulated per-partial merge cost of the
// goroutine runtime's R sweep: large enough (vs the engine's per-tuple
// overhead) that the reduce stage is the bottleneck at R=1, so the
// sweep measures real wall-clock parallelization of the merge work.
const liveSweepMergeCost = 50 * time.Microsecond

// shardSweepLive sweeps the reduce stage's shard count on the
// goroutine runtime under a simulated per-partial merge cost
// (wall-clock numbers: host-dependent, the speedup column is the
// point). Throughput is timed over the whole Run call, reducer drain
// included: Result.Throughput stops at the bolts' drain, before the
// reducers finish the buffered windows this sweep exists to measure.
// Messages are capped so the serialized R=1 row stays around a second
// at Full scale.
func shardSweepLive(m int64) (*texttab.Table, error) {
	if m > 60_000 {
		m = 60_000
	}
	win := m / aggWindowDivisors[0]
	tab := texttab.New(fmt.Sprintf(
		"AggShards sweep (dspe goroutine runtime, wall clock): merge=%v/partial, window=%d, n=%d, s=%d, z=%.1f, m=%d",
		liveSweepMergeCost, win, aggWorkers, aggSources, aggSkew, m),
		"R", "algo", "events/s", "speedup", "red-util", "red-util-mean")
	var thr1 float64
	for _, r := range aggShardCounts {
		gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
		t0 := time.Now()
		res, err := dspe.Run(gen, dspe.Config{
			Workers:      aggWorkers,
			Sources:      aggSources,
			Algorithm:    "W-C",
			Core:         core.Config{Seed: Seed, Epsilon: Epsilon},
			ServiceTime:  0,
			Window:       64,
			AggWindow:    win,
			AggShards:    r,
			AggMergeCost: liveSweepMergeCost,
		})
		if err != nil {
			return nil, err
		}
		thr := float64(res.Completed) / time.Since(t0).Seconds()
		if r == 1 {
			thr1 = thr
		}
		speedup := 0.0
		if thr1 > 0 {
			speedup = thr / thr1
		}
		tab.Add(
			fmt.Sprintf("%d", r),
			"W-C",
			fmt.Sprintf("%.0f", thr),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.3f", res.AggReducerUtil),
			fmt.Sprintf("%.3f", res.AggReducerUtilMean),
		)
	}
	return tab, nil
}

// aggRow renders one window-sweep row; partials is the aggregation
// traffic the msgs/window column divides over st's closed windows.
func aggRow(win int64, algo string, thr, baseThr float64, partials int64, st aggregation.ReducerStats, repl, util float64) []string {
	delta := 0.0
	if baseThr > 0 {
		delta = 100 * (1 - thr/baseThr)
	}
	perWindow := 0.0
	if st.WindowsClosed > 0 {
		perWindow = float64(partials) / float64(st.WindowsClosed)
	}
	return []string{
		fmt.Sprintf("%d", win),
		algo,
		fmt.Sprintf("%.0f", thr),
		fmt.Sprintf("%.1f", delta),
		fmt.Sprintf("%.1f", perWindow),
		fmt.Sprintf("%.4f", repl),
		fmt.Sprintf("%d", st.PeakEntries),
		fmt.Sprintf("%d", st.Late),
		fmt.Sprintf("%.3f", util),
	}
}

package experiments

import (
	"fmt"
	"time"

	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// liveMessages keeps the wall-clock experiment affordable: the paper's
// engine substitution argument (DESIGN.md §4) is validated by running
// the same comparison on real goroutines; it does not need 2e6 messages
// to show the ordering.
func (s Scale) liveMessages() int64 {
	switch s {
	case Full:
		return 200_000
	case Default:
		return 60_000
	default:
		return 20_000
	}
}

// LiveFig13 runs the Fig 13 comparison on the concurrent goroutine
// runtime (internal/dspe) instead of the discrete-event engine: real
// links, real clock, real contention. Numbers vary with the host,
// but the ordering (KG < PKG < D-C ≈ W-C ≈ SG) must match both the
// paper and the deterministic engine. Scaled down relative to the
// paper (n=16, 1 ms/msg) so a run takes seconds.
func LiveFig13(sc Scale) ([]*texttab.Table, error) {
	const (
		n, s = 16, 8
		z    = 2.0
	)
	m := sc.liveMessages()
	t := texttab.New(fmt.Sprintf(
		"Live Fig 13 (goroutine runtime): throughput (events/s), n=%d, s=%d, z=%.1f, m=%d",
		n, s, z, m),
		"Algorithm", "Throughput(ev/s)", "p99(ms)", "Imbalance")
	for _, algo := range clusterAlgos {
		gen := workload.NewZipf(z, ZFKeys, m, Seed)
		res, err := dspe.Run(gen, dspe.Config{
			Workers:     n,
			Sources:     s,
			Algorithm:   algo,
			Core:        core.Config{Seed: Seed, Epsilon: Epsilon},
			ServiceTime: time.Millisecond,
			Window:      64,
		})
		if err != nil {
			return nil, err
		}
		t.Add(algo,
			fmt.Sprintf("%.0f", res.Throughput),
			fmt.Sprintf("%.2f", float64(res.P99)/float64(time.Millisecond)),
			fmtImb(res.Imbalance))
	}
	return []*texttab.Table{t}, nil
}

// AblateStraggler injects a worker that is 8× slower than its peers and
// measures every algorithm's throughput on the discrete-event engine.
// Finding (and honest limitation of the paper's model): NO scheme
// routes around slow hardware, because the load estimate counts
// messages *sent*, not work completed — the Greedy-d process equalizes
// message counts, so the straggler still receives its full share.
// Handling heterogeneous service rates would need completion feedback,
// which the paper explicitly avoids (no coordination).
func AblateStraggler(sc Scale) ([]*texttab.Table, error) {
	const (
		n, s = 16, 8
		z    = 1.4
	)
	m := sc.liveMessages()
	t := texttab.New("Ablation: 8× straggler worker (discrete-event engine, n=16)",
		"Algorithm", "Healthy(ev/s)", "Straggler(ev/s)", "Slowdown(%)")
	for _, algo := range clusterAlgos {
		run := func(slow map[int]float64) (eventsim.Result, error) {
			gen := workload.NewZipf(z, ZFKeys, m, Seed)
			return eventsim.Run(gen, eventsim.Config{
				Workers:      n,
				Sources:      s,
				Algorithm:    algo,
				Core:         core.Config{Seed: Seed, Epsilon: Epsilon},
				ServiceTime:  1,
				Window:       64,
				Messages:     m,
				MeasureAfter: m / 5,
				SlowFactor:   slow,
			})
		}
		healthy, err := run(nil)
		if err != nil {
			return nil, err
		}
		degraded, err := run(map[int]float64{0: 8})
		if err != nil {
			return nil, err
		}
		slowdown := 0.0
		if healthy.Throughput > 0 {
			slowdown = 100 * (1 - degraded.Throughput/healthy.Throughput)
		}
		t.Add(algo,
			fmt.Sprintf("%.0f", healthy.Throughput),
			fmt.Sprintf("%.0f", degraded.Throughput),
			fmt.Sprintf("%.1f", slowdown))
	}
	return []*texttab.Table{t}, nil
}

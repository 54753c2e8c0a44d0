package dspe

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slb/internal/texttab"
	"slb/internal/workload"
)

// BenchmarkPipelineThroughput is the dataplane A/B: the same
// spout→bolt→sharded-reduce topology (AggShards=4, skewed stream)
// timed end to end — the full Run call, reducer drain included — on
// the channel plane and on the SPSC ring plane, in three regimes:
//
//   - raw: AggMergeCost = 0, so the wall clock is the dataplane itself.
//     The ring plane's win here is lock-free per-edge rings: no
//     per-tuple in-flight channel handshake, no per-slab allocation,
//     batched Grant/Publish on every edge.
//   - reduce-bound: the PR-4 reference regime (AggMergeCost = 50 µs,
//     the merge cost that saturates the reduce stage at R = 1 and is
//     quartered by R = 4). Here the worker-side combiner tree is
//     structural: it pre-merges same-host partials before the shard
//     hop, so the reducers pay the per-partial cost roughly once per
//     (window, key) instead of once per (window, key, worker).
//   - wide: the paper's at-scale regime (D-C over 256 workers, z=2.0,
//     100k keys, no merge cost), where each bolt sees about one
//     message per wake and per-bolt scheduling dominates: the regime in
//     which the transport plane's executors differ from the ring
//     plane's goroutine per bolt. Its stream is sized so the channel
//     leg, the slowest, stays under 2 s at -benchtime=5x on a 2-core
//     host. It has no TCP leg (see the loop below).
//
// The raw and reduce-bound regimes run W-C over 16 workers at z=1.4. Two
// transport legs ride along: mem-transport (the same topology over
// internal/transport memory links) and tcp-transport (loopback TCP with
// batched varint framing). Their shard roots combine partials like the
// ring plane's, without the interior tree nodes. The TCP leg prices
// leaving the process.
//
// Each leg also reports merged partials per final (Agg.Partials /
// Agg.Finals): the replication factor on the channel plane, exactly 1
// wherever a completeness-buffered combiner root feeds the reducers.
// It is deterministic, so the combiner's cut reads as a number in the
// artifact.
//
// When SLB_BENCH_DIR is set, the run writes the measured table as
// BENCH_pipeline_throughput.json — the engine's entry in the CI perf
// trajectory, alongside routing's BENCH_* tables.
func BenchmarkPipelineThroughput(b *testing.B) {
	regimes := []struct {
		name    string
		algo    string
		workers int
		z       float64
		msgs    int64
		keys    int
		cost    time.Duration
	}{
		{"raw", "W-C", 16, 1.4, 200_000, 300, 0},
		{"reduce-bound", "W-C", 16, 1.4, 20_000, 2000, 50 * time.Microsecond},
		{"wide", "D-C", 256, 2.0, 100_000, 100_000, 0},
	}
	planes := []struct {
		name string
		dp   Dataplane
		tr   Transport
		win  int
	}{
		{"channel", DataplaneChannel, TransportDirect, 0},
		{"ring", DataplaneRing, TransportDirect, 0},
		{"mem-transport", DataplaneRing, TransportMemory, 0},
		// The default in-flight window (100) makes a TCP run ack-latency
		// bound — every burst waits out a loopback syscall round trip —
		// so the leg would measure latency, not transport throughput. A
		// deeper window keeps the wire busy between ack cycles.
		{"tcp-transport", DataplaneRing, TransportTCP, 4096},
	}

	rate := make(map[string]float64)
	perFinal := make(map[string]float64) // merged partials per final
	for _, reg := range regimes {
		for _, plane := range planes {
			if reg.workers > 16 && plane.tr == TransportTCP {
				// 2048 loopback links, each sender eagerly holding its
				// ~0.6 MB resend window: a memory test, not a throughput
				// one.
				continue
			}
			b.Run(reg.name+"/"+plane.name, func(b *testing.B) {
				cfg := Config{
					Workers:      reg.workers,
					Sources:      4,
					Algorithm:    reg.algo,
					AggWindow:    500,
					AggShards:    4,
					Messages:     reg.msgs,
					AggMergeCost: reg.cost,
					Dataplane:    plane.dp,
					Transport:    plane.tr,
					Window:       plane.win,
				}
				b.ReportAllocs()
				b.ResetTimer()
				var res Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = Run(workload.NewZipf(reg.z, reg.keys, reg.msgs, 17), cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				mps := float64(reg.msgs) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(mps, "msgs/s")
				ppf := float64(res.Agg.Partials) / float64(res.Agg.Finals)
				b.ReportMetric(ppf, "partials/final")
				rate[reg.name+"/"+plane.name] = mps
				perFinal[reg.name+"/"+plane.name] = ppf
			})
		}
	}

	if dir := os.Getenv("SLB_BENCH_DIR"); dir != "" {
		tab := &texttab.Table{
			Title:   "pipeline throughput: channel vs ring vs transport (R=4; raw, reduce-bound: W-C, n=16, z=1.4; wide: D-C, n=256, z=2.0)",
			Columns: []string{"regime", "dataplane", "msgs/s", "speedup", "partials/final"},
		}
		for _, reg := range regimes {
			base := rate[reg.name+"/channel"]
			if base <= 0 {
				continue
			}
			for _, plane := range planes {
				mps := rate[reg.name+"/"+plane.name]
				tab.Rows = append(tab.Rows, []string{
					reg.name,
					plane.name,
					fmt.Sprintf("%.0f", mps),
					fmt.Sprintf("%.2fx", mps/base),
					fmt.Sprintf("%.3f", perFinal[reg.name+"/"+plane.name]),
				})
			}
		}
		if err := tab.WriteJSON(filepath.Join(dir, "BENCH_pipeline_throughput.json")); err != nil {
			b.Fatalf("writing bench artifact: %v", err)
		}
	}
}

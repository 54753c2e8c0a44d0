package dspe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/texttab"
	"slb/internal/workload"
)

// BenchmarkPipelineThroughput is the transport A/B: the same
// spout→bolt→sharded-reduce topology (AggShards=4, skewed stream)
// timed end to end — the full Run call, reducer drain included — over
// memory links and over loopback TCP, in three regimes:
//
//   - raw: AggMergeCost = 0, so the wall clock is the data path itself.
//   - reduce-bound: AggMergeCost = 50 µs, the merge cost that saturates
//     the reduce stage at R = 1 and is quartered by R = 4. The shard
//     roots' combiners pre-merge partials before the driver, so the
//     reducers pay the per-partial cost once per (window, key) instead
//     of once per (window, key, worker).
//   - wide: the paper's at-scale regime (D-C over 256 workers, z=2.0,
//     100k keys, no merge cost), where each bolt sees about one
//     message per wake and executor scheduling dominates. It has no
//     TCP leg (see the loop below).
//
// The raw and reduce-bound regimes run W-C over 16 workers at z=1.4.
// mem-transport is the base leg; tcp-transport (batched columnar
// framing over loopback) prices leaving the process.
//
// Each leg also reports merged partials per final (Agg.Partials /
// Agg.Finals): exactly 1 wherever a completeness-buffered combiner
// root feeds the reducers. It is deterministic, so the combiner's cut
// reads as a number in the artifact.
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
		tr   Transport
		win  int
	}{
		{"mem-transport", TransportMemory, 0},
		// The default in-flight window (100) makes a TCP run ack-latency
		// bound — every burst waits out a loopback syscall round trip —
		// so the leg would measure latency, not transport throughput. A
		// deeper window keeps the wire busy between ack cycles.
		{"tcp-transport", TransportTCP, 4096},
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
			Title:   "pipeline throughput: memory vs TCP transport (R=4; raw, reduce-bound: W-C, n=16, z=1.4; wide: D-C, n=256, z=2.0)",
			Columns: []string{"regime", "transport", "msgs/s", "speedup", "partials/final"},
		}
		for _, reg := range regimes {
			base := rate[reg.name+"/mem-transport"]
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

// pipelineShapes are the Pipeline topologies BenchmarkPipelineShapes
// times, 4 spouts each:
//
//   - trending: examples/trending's three stages — a weighted SG
//     normalize stage, a 12-way D-C windowed Sum merge, a 2-way KG
//     merge — over z=1.8, 3000 keys.
//   - chain: an 8-way PKG pass-through stage into an 8-way KG leaf,
//     z=1.4, 1000 keys: per-tuple edge cost with no aggregation.
//   - agg16, agg256: a 16- or 256-way D-C windowed aggregate (window
//     1000) into a 4-way KG reduce, z=2.0, 10k keys. The 256-way shape
//     is the paper's wide regime: executors far outnumber processors
//     and each sees few tuples per wake.
var pipelineShapes = []struct {
	name  string
	z     float64
	keys  int
	build func(gen stream.Generator) *Pipeline
}{
	{"trending", 1.8, 3000, func(gen stream.Generator) *Pipeline {
		return NewPipeline(gen, 4).
			AddWeightedStage("normalize", 4, "SG", 0, func(key string, _, _ int64, emit func(string, int64)) {
				tag := strings.ToLower(key)
				emit(tag, int64(len(tag)%5)+1)
			}).
			AddWindowedMerge("sum-partial", 12, "D-C", 12_000, aggregation.SumMerger).
			AddWeightedStage("merge", 2, "KG", 0, func(string, int64, int64, func(string, int64)) {})
	}},
	{"chain", 1.4, 1000, func(gen stream.Generator) *Pipeline {
		return NewPipeline(gen, 4).
			AddStage("pass", 8, "PKG", 0, func(key string, emit func(string)) { emit(key) }).
			AddStage("count", 8, "KG", 0, func(string, func(string)) {})
	}},
	{"agg16", 2.0, 10_000, func(gen stream.Generator) *Pipeline {
		return NewPipeline(gen, 4).
			AddWindowedAggregate("partial", 16, "D-C", 1000).
			AddWeightedStage("reduce", 4, "KG", 0, func(string, int64, int64, func(string, int64)) {})
	}},
	{"agg256", 2.0, 10_000, func(gen stream.Generator) *Pipeline {
		return NewPipeline(gen, 4).
			AddWindowedAggregate("partial", 256, "D-C", 1000).
			AddWeightedStage("reduce", 4, "KG", 0, func(string, int64, int64, func(string, int64)) {})
	}},
}

// BenchmarkPipelineShapes times Pipeline.Run end to end — ring setup
// and drain included, stream generation excluded — on each of
// pipelineShapes over 200k tuples, and reports msgs/s.
func BenchmarkPipelineShapes(b *testing.B) {
	const msgs = 200_000
	for _, sh := range pipelineShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := sh.build(workload.NewZipf(sh.z, sh.keys, msgs, 17))
				b.StartTimer()
				res, err := p.Run(PipelineConfig{Core: core.Config{Seed: 17}})
				if err != nil {
					b.Fatal(err)
				}
				if res.Emitted != msgs {
					b.Fatalf("emitted %d of %d", res.Emitted, msgs)
				}
			}
			b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

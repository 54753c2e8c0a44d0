// Command perfbench is the repository benchmark. It drives dspe.Run
// through the public dspe.Config API on one of four workloads, checks
// every window's finals against ground truth, and prints the
// end-to-end metrics (--trace 0) or the per-layer cost ledger
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// where attempted counts the windows checked and failed those whose
// finals differ from ground truth. It exits 1 when any window failed.
//
// Run it through run.py, which builds it from the enclosing checkout:
//
//	python3 perfbench/run.py --workload skew-tcp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// heldOutSeed is the seed later performance claims must also hold on;
// it is not to be used while a change is being written.
const heldOutSeed = 9001

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each one as a readable line.
type report struct{ m map[string]metric }

func (r *report) add(name string, value float64, unit, note string) {
	if r.m != nil {
		v := value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a series with no samples: every Run failed, and correct is false
		}
		r.m[name] = metric{v, unit}
	}
	fmt.Printf("%-34s %16.6g %-8s %s\n", name, value, unit, note)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "seconds of timed Runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead")
	commit := flag.String("commit", "unknown", "source revision, recorded with the result")
	outDir := flag.String("out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	meta := map[string]any{
		"workload": s.name, "seed": *seed, "held_out_seed": heldOutSeed,
		"trace": *trace, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit, "params": s.params(),
	}
	var t tally
	metrics := map[string]metric{}
	if *trace == 1 {
		traced(s, *seed, *outDir, &t, &report{metrics}, meta)
	} else {
		untraced(s, *seed, *seconds, &t, &report{metrics})
	}
	mj, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(mj))

	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// untraced measures and prints the end-to-end metrics.
func untraced(s spec, seed uint64, seconds float64, t *tally, r *report) {
	e := measure(s, seed, seconds, t)
	runs := fmt.Sprintf("(median of %d Runs)", len(e.throughput))
	r.add("throughput_eps", median(e.throughput), "1/s", runs)
	wins := fmt.Sprintf("(median over Runs; %d windows, %d per Run)", len(e.latency), len(e.latency)/max(len(e.p90), 1))
	r.add("window_p50_ms", median(e.p50)/1e6, "ms", wins)
	r.add("window_p90_ms", median(e.p90)/1e6, "ms", wins)
	r.add("setup_s", e.setupS, "s", fmt.Sprintf("(median of %d one-window Runs)", setupRuns))
	r.add("peak_rss_mb", e.peakRSS, "MiB", "(process max RSS)")
	r.add("cpu_ns_per_msg", median(e.cpuPerMsg), "ns", runs)
	r.add("replication", median(e.repl), "replicas", runs)

	info := report{}
	// p99 is printed but not gated: on wide-mem it moves by a fifth
	// between runs of the same code.
	info.add("window_p99_ms", quantile(e.latency, 0.99)/1e6, "ms", fmt.Sprintf("(all %d windows)", len(e.latency)))
	info.add("imbalance", median(e.imbalance), "ratio", runs)
	info.add("failed_window_frac", float64(t.failed)/float64(max(t.attempted, 1)), "ratio",
		fmt.Sprintf("(%d of %d windows)", t.failed, t.attempted))
	if s.rate > 0 {
		info.add("gen_lag_p99_ms", quantile(e.genLag, 0.99)/1e6, "ms", fmt.Sprintf("(%d slabs)", len(e.genLag)))
		info.add("offered_eps", s.rate, "1/s", "(open-loop schedule)")
	}
	info.add("measured_s", e.measured.Seconds(), "s", "(wall time of the timed Runs)")
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"slb/internal/dspe"
	"slb/internal/telemetry"
)

// setupRuns is how many one-window Runs setup_s takes the median of:
// one such Run lasts only milliseconds on the memory backend.
const setupRuns = 21

// minReps is the fewest timed Runs a measurement makes, whatever
// --seconds says, so medians are never taken over one Run.
const minReps = 3

// tally counts windows attempted and failed across every checked Run
// of one invocation, setup Runs included.
type tally struct{ attempted, failed int64 }

// checkedRun executes one dspe.Run of src's stream and checks every
// window's finals against chk's ground truth. A Run error, or a Run
// whose totals differ from the stream length, fails all its windows.
// It returns the result and the process CPU time the Run took.
func checkedRun(s spec, src *source, chk *checker, reg *telemetry.Registry, t *tally) (dspe.Result, time.Duration) {
	msgs := src.Len()
	base := time.Now()
	src.start(base)
	chk.start(base)
	cfg := s.config(msgs, chk.onFinal)
	cfg.Telemetry = reg
	c0 := cpuTime(syscall.RUSAGE_SELF)
	res, err := dspe.Run(src, cfg)
	cpu := cpuTime(syscall.RUSAGE_SELF) - c0
	windows := int64(len(chk.want))
	t.attempted += windows
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: run failed: %v\n", s.name, err)
		t.failed += windows
	case res.Completed != msgs || res.AggTotal != msgs:
		fmt.Fprintf(os.Stderr, "perfbench: %s: sent %d, completed %d, finals total %d\n",
			s.name, msgs, res.Completed, res.AggTotal)
		t.failed += windows
	default:
		if n := chk.failed(); n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d windows differ from ground truth\n", s.name, n, windows)
			t.failed += n
		}
	}
	return res, cpu
}

// measureSetup returns the median wall time of generator construction
// plus a Run capped at one window: opening the links, allocating the
// buffers, and starting and draining the goroutines.
func measureSetup(s spec, seed uint64, t *tally) float64 {
	truth := groundTruth(s, seed, s.window)
	times := make([]float64, 0, setupRuns)
	for range setupRuns {
		runtime.GC()
		t0 := time.Now()
		src := newSource(s, seed, s.window)
		checkedRun(s, src, newChecker(truth), nil, t)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

// endToEnd is the untraced measurement of one workload. Each per-Run
// series holds one value per timed Run; window latency quantiles are
// taken per Run, so one disturbed Run moves the medians little.
type endToEnd struct {
	setupS     float64
	throughput []float64 // msgs/s
	cpuPerMsg  []float64 // ns
	repl       []float64
	imbalance  []float64
	p50, p90   []float64 // window latency per Run, ns
	latency    []float64 // every window of every Run, ns
	genLag     []float64 // open loop: per slab of every Run, ns
	peakRSS    float64   // MiB
	measured   time.Duration
}

// measure runs the workload untraced: setup Runs, then timed Runs of
// s.repMsgs messages until at least seconds of Runs have elapsed.
func measure(s spec, seed uint64, seconds float64, t *tally) endToEnd {
	var e endToEnd
	e.setupS = measureSetup(s, seed, t)
	truth := groundTruth(s, seed, s.repMsgs)
	src := newSource(s, seed, s.repMsgs)
	chk := newChecker(truth)
	var lat []float64
	for reps := 0; reps < minReps || e.measured.Seconds() < seconds; reps++ {
		runtime.GC()
		t0 := time.Now()
		res, cpu := checkedRun(s, src, chk, nil, t)
		e.measured += time.Since(t0)
		if res.Completed == 0 {
			continue
		}
		e.throughput = append(e.throughput, res.Throughput)
		e.cpuPerMsg = append(e.cpuPerMsg, float64(cpu.Nanoseconds())/float64(res.Completed))
		e.repl = append(e.repl, res.AggReplication)
		e.imbalance = append(e.imbalance, res.Imbalance)
		lat = chk.latencies(src.stamps, lat[:0])
		e.p50 = append(e.p50, quantile(lat, 0.50))
		e.p90 = append(e.p90, quantile(lat, 0.90))
		e.latency = append(e.latency, lat...)
		e.genLag = append(e.genLag, src.lags...)
	}
	e.peakRSS = peakRSSMiB()
	return e
}

package dspe

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/transport"
	"slb/internal/workload"
)

// TestTransportPlaneParity pins the transport tentpole's correctness
// contract: both transport backends (memory links and loopback TCP)
// must produce bit-equal finals AND bit-equal replication factors to
// the direct channel dataplane. Replication is compared with a single
// source, where routing — and therefore the (window, key, worker)
// triples — is deterministic. The shard roots' combiner cut is pinned
// too: one merged partial per (window, key).
func TestTransportPlaneParity(t *testing.T) {
	for _, algo := range []string{"KG", "W-C"} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				base := Config{
					Workers:   8,
					Sources:   1,
					Algorithm: algo,
					AggWindow: 500,
					AggShards: shards,
					Messages:  20_000,
				}

				direct := base
				direct.Dataplane = DataplaneChannel
				dFinals, dRes := collectFinals(t, direct, workload.NewZipf(1.2, 300, 20_000, 7))

				for _, tp := range []struct {
					name string
					sel  Transport
				}{{"memory", TransportMemory}, {"tcp", TransportTCP}} {
					cfg := base
					cfg.Transport = tp.sel
					finals, res := collectFinals(t, cfg, workload.NewZipf(1.2, 300, 20_000, 7))
					if len(finals) != len(dFinals) {
						t.Fatalf("%s: final count differs: direct %d, transport %d", tp.name, len(dFinals), len(finals))
					}
					for id, want := range dFinals {
						if got, ok := finals[id]; !ok || got != want {
							t.Fatalf("%s: final %s: direct %v, transport %v (present=%v)", tp.name, id, want, got, ok)
						}
					}
					if res.AggReplication != dRes.AggReplication {
						t.Errorf("%s: replication differs: direct %v, transport %v", tp.name, dRes.AggReplication, res.AggReplication)
					}
					if res.Completed != 20_000 || res.AggTotal != 20_000 {
						t.Errorf("%s: completed/total: %d/%d, want 20000/20000", tp.name, res.Completed, res.AggTotal)
					}
					// The shard roots buffer to window completeness, so each
					// driver merges exactly one combined partial per
					// (window, key); with replication > 1 that is strictly
					// fewer than the bolts flushed.
					if res.Agg.Partials != res.Agg.Finals {
						t.Errorf("%s: reducers merged %d partials for %d finals (must be equal)",
							tp.name, res.Agg.Partials, res.Agg.Finals)
					}
					if algo == "W-C" && res.Agg.Partials >= res.AggBoltPartials {
						t.Errorf("%s: reducers merged %d partials, bolts flushed %d (combiner root must cut)",
							tp.name, res.Agg.Partials, res.AggBoltPartials)
					}
				}
			})
		}
	}
}

// TestTransportPlaneMultiSource relaxes to what stays deterministic
// under concurrent spouts — the finals — and checks them bit-equal
// between the direct plane and the TCP transport.
func TestTransportPlaneMultiSource(t *testing.T) {
	base := Config{
		Workers:   10,
		Sources:   3,
		Algorithm: "W-C",
		AggWindow: 400,
		AggShards: 2,
		Messages:  18_000,
	}
	direct := base
	direct.Dataplane = DataplaneChannel
	dFinals, dRes := collectFinals(t, direct, workload.NewZipf(1.4, 200, 18_000, 11))

	cfg := base
	cfg.Transport = TransportTCP
	finals, res := collectFinals(t, cfg, workload.NewZipf(1.4, 200, 18_000, 11))

	if len(finals) != len(dFinals) {
		t.Fatalf("final count differs: direct %d, tcp %d", len(dFinals), len(finals))
	}
	for id, want := range dFinals {
		if got, ok := finals[id]; !ok || got != want {
			t.Fatalf("final %s: direct %v, tcp %v (present=%v)", id, want, got, ok)
		}
	}
	if dRes.AggTotal != 18_000 || res.AggTotal != 18_000 {
		t.Errorf("totals: direct %d, tcp %d, want 18000", dRes.AggTotal, res.AggTotal)
	}
}

// TestTransportPlaneNoAgg sanity-checks the plain (no aggregation)
// topology over both transport backends: every message is processed
// exactly once.
func TestTransportPlaneNoAgg(t *testing.T) {
	for _, tp := range []struct {
		name string
		sel  Transport
	}{{"memory", TransportMemory}, {"tcp", TransportTCP}} {
		t.Run(tp.name, func(t *testing.T) {
			res, err := Run(workload.NewZipf(1.1, 500, 15_000, 5), Config{
				Workers:   6,
				Sources:   3,
				Algorithm: "PKG",
				Messages:  15_000,
				Transport: tp.sel,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Completed != 15_000 {
				t.Fatalf("Completed = %d, want 15000", res.Completed)
			}
			var sum int64
			for _, l := range res.Loads {
				sum += l
			}
			if sum != 15_000 {
				t.Fatalf("Loads sum = %d, want 15000", sum)
			}
		})
	}
}

// TestTransportPlaneFaultParity is the tentpole's exactness pin: a
// topology run whose transport suffers deterministic chaos — at least
// 1% of sender-side buffer writes dropped and every data link severed
// at least once — must produce finals and replication factors
// bit-equal to the fault-free direct plane. Both transport backends
// are exercised; the single-source case also compares replication
// (deterministic routing), the multi-source case compares finals.
func TestTransportPlaneFaultParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sources int
	}{{"single-source", 1}, {"multi-source", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Workers:   6,
				Sources:   tc.sources,
				Algorithm: "W-C",
				AggWindow: 400,
				AggShards: 2,
				Messages:  12_000,
			}
			direct := base
			direct.Dataplane = DataplaneChannel
			dFinals, dRes := collectFinals(t, direct, workload.NewZipf(1.2, 250, 12_000, 7))

			for _, tp := range []struct {
				name string
				sel  Transport
			}{{"memory", TransportMemory}, {"tcp", TransportTCP}} {
				t.Run(tp.name, func(t *testing.T) {
					var faults map[string]transport.ChaosLinkStats
					cfg := base
					cfg.Transport = tp.sel
					// SeverEvery=2 severs on every second judged buffer write,
					// so every link that makes two is guaranteed a sever.
					cfg.Chaos = &transport.ChaosConfig{Seed: 23, DropOneIn: 4, SeverEvery: 2}
					cfg.OnFaultStats = func(st map[string]transport.ChaosLinkStats) { faults = st }
					finals, res := collectFinals(t, cfg, workload.NewZipf(1.2, 250, 12_000, 7))

					if len(finals) != len(dFinals) {
						t.Fatalf("final count differs: fault-free %d, chaos %d", len(dFinals), len(finals))
					}
					for id, want := range dFinals {
						if got, ok := finals[id]; !ok || got != want {
							t.Fatalf("final %s: fault-free %v, chaos %v (present=%v)", id, want, got, ok)
						}
					}
					if tc.sources == 1 && res.AggReplication != dRes.AggReplication {
						t.Errorf("replication differs: fault-free %v, chaos %v", dRes.AggReplication, res.AggReplication)
					}
					if res.Completed != 12_000 || res.AggTotal != 12_000 {
						t.Errorf("completed/total: %d/%d, want 12000/12000", res.Completed, res.AggTotal)
					}
					// Resends and receive-edge dedup must not disturb the
					// root: still one merged partial per (window, key).
					if res.Agg.Partials != res.Agg.Finals {
						t.Errorf("reducers merged %d partials for %d finals (must be equal)",
							res.Agg.Partials, res.Agg.Finals)
					}

					// The run must actually have suffered the schedule. A link
					// enters the ledger on its first judged write, and a spout
					// that draws no slab (starved while the others drain the
					// stream) never writes its links, while one that draws a
					// single slab writes each just once, too few for a sever.
					// So: every link with SeverEvery writes was severed, every
					// bolt's partial links and at least one source's links are
					// present and severed, each source shows all of its links
					// or none, and >= 1% of judged writes were dropped.
					var writes, dropped int64
					for link, st := range faults {
						writes += st.Writes
						dropped += st.Dropped
						if st.Writes >= int64(cfg.Chaos.SeverEvery) && st.Severed == 0 {
							t.Errorf("link %s was never severed (writes=%d)", link, st.Writes)
						}
					}
					for w := 0; w < base.Workers; w++ {
						for r := 0; r < base.AggShards; r++ {
							link := fmt.Sprintf("w%d>r%d", w, r)
							if st, ok := faults[link]; !ok || st.Severed == 0 {
								t.Errorf("link %s missing from the ledger or never severed (%+v)", link, st)
							}
						}
					}
					present, hit := 0, false
					for s := 0; s < tc.sources; s++ {
						links, cut := 0, 0
						for w := 0; w < base.Workers; w++ {
							if st, ok := faults[fmt.Sprintf("s%d>w%d", s, w)]; ok {
								links++
								if st.Severed > 0 {
									cut++
								}
							}
						}
						if links != 0 && links != base.Workers {
							t.Errorf("fault ledger covers %d of source %d's %d links", links, s, base.Workers)
						}
						present += links
						hit = hit || cut == base.Workers
					}
					if !hit {
						t.Error("no source had all of its links severed")
					}
					if want := present + base.Workers*base.AggShards; len(faults) != want {
						t.Errorf("fault ledger covers %d links, want %d", len(faults), want)
					}
					if dropped*100 < writes {
						t.Errorf("dropped %d of %d writes, want >= 1%%", dropped, writes)
					}
				})
			}
		})
	}
}

// raceBuild is true when the tests run under the race detector.
var raceBuild bool

// TestTransportPlaneGroundTruthAtScale runs the paper's at-scale regime
// — D-C over 256 workers at z=2.0, two spouts — on both transports,
// where each executor hosts many bolts. Finals must equal a sequential
// per-(window, key) count and sum of the same stream, computed here,
// and every message must be processed and aggregated exactly once.
func TestTransportPlaneGroundTruthAtScale(t *testing.T) {
	const (
		msgs   = 60_000
		window = 1000
	)
	gen := func() *workload.Zipf { return workload.NewZipf(2.0, 10_000, msgs, 13) }
	value := func(_ string, seq int64) int64 { return seq%7 + 1 }

	want := make(map[string][2]int64)
	g := gen()
	for seq := int64(0); ; seq++ {
		k, ok := g.Next()
		if !ok {
			break
		}
		id := fmt.Sprintf("%d|%s", seq/window, k)
		f := want[id]
		want[id] = [2]int64{f[0] + 1, f[1] + value(k, seq)}
	}

	for _, tp := range []struct {
		name string
		sel  Transport
	}{{"memory", TransportMemory}, {"tcp", TransportTCP}} {
		t.Run(tp.name, func(t *testing.T) {
			if tp.sel == TransportTCP && raceBuild {
				// ~2300 link goroutines push the race detector past 2 GB;
				// the TCP link paths are race-tested at smaller scale.
				t.Skip("768 TCP links are too heavy under -race")
			}
			cfg := Config{
				Workers:   256,
				Sources:   2,
				Algorithm: "D-C",
				AggWindow: window,
				// One shard keeps the TCP leg at 768 links; every TCP
				// sender eagerly allocates its whole resend window.
				AggShards: 1,
				AggMerger: aggregation.SumMerger,
				AggValue:  value,
				Messages:  msgs,
				Transport: tp.sel,
			}
			finals, res := collectFinals(t, cfg, gen())
			if len(finals) != len(want) {
				t.Fatalf("%d finals, want %d", len(finals), len(want))
			}
			for id, w := range want {
				if got, ok := finals[id]; !ok || got != w {
					t.Fatalf("final %s = %v (present=%v), want %v", id, got, ok, w)
				}
			}
			if res.Completed != msgs || res.AggTotal != msgs {
				t.Errorf("completed/total: %d/%d, want %d/%d", res.Completed, res.AggTotal, msgs, msgs)
			}
			var sum int64
			for _, l := range res.Loads {
				sum += l
			}
			if sum != msgs {
				t.Errorf("Loads sum = %d, want %d", sum, msgs)
			}
		})
	}
}

// TestTransportPlaneExecutorGoroutines pins the execution model: with
// no service time, 256 bolts run as tasks on at most GOMAXPROCS
// executor goroutines, not one goroutine each. The peak is sampled
// from inside the run (OnFinal runs on a reducer shard goroutine).
func TestTransportPlaneExecutorGoroutines(t *testing.T) {
	const slack = 4
	cfg := Config{
		Workers:   256,
		Sources:   2,
		Algorithm: "D-C",
		AggWindow: 1000,
		AggShards: 2,
		Messages:  40_000,
		Transport: TransportMemory,
	}
	var peak atomic.Int64
	cfg.OnFinal = func(aggregation.Final) {
		n := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	before := runtime.NumGoroutine()
	res, err := Run(workload.NewZipf(2.0, 10_000, 40_000, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40_000 {
		t.Fatalf("Completed = %d, want 40000", res.Completed)
	}
	limit := before + runtime.GOMAXPROCS(0) + cfg.Sources + cfg.AggShards + slack
	if p := int(peak.Load()); p == 0 || p > limit {
		t.Fatalf("peak goroutines %d, want in (0, %d] (%d before the run)", p, limit, before)
	}
}

// TestExecutorCount pins how many executors host the bolts: at most
// GOMAXPROCS without service time, one per bolt with it.
func TestExecutorCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		workers int
		svc     time.Duration
		want    int
	}{
		{256, 0, min(256, procs)},
		{1, 0, 1},
		{256, 5 * time.Microsecond, 256},
		{3, time.Millisecond, 3},
	} {
		if got := executorCount(Config{Workers: tc.workers, ServiceTime: tc.svc}); got != tc.want {
			t.Errorf("executorCount(Workers=%d, ServiceTime=%v) = %d, want %d", tc.workers, tc.svc, got, tc.want)
		}
	}
}

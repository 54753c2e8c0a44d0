package dspe

import (
	"fmt"
	"testing"

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
					// SeverEvery=2 severs on every second buffer write; even
					// the quietest link makes two (its final flush and its
					// FIN), so every link is guaranteed a sever.
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

					// The run must actually have suffered the schedule: every
					// data link severed at least once, and >= 1% of judged
					// writes dropped overall.
					var writes, dropped int64
					for link, st := range faults {
						writes += st.Writes
						dropped += st.Dropped
						if st.Severed == 0 {
							t.Errorf("link %s was never severed (writes=%d)", link, st.Writes)
						}
					}
					wantLinks := tc.sources*base.Workers + base.Workers*base.AggShards
					if len(faults) != wantLinks {
						t.Errorf("fault ledger covers %d links, want %d", len(faults), wantLinks)
					}
					if dropped*100 < writes {
						t.Errorf("dropped %d of %d writes, want >= 1%%", dropped, writes)
					}
				})
			}
		})
	}
}

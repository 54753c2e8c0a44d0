package main

import (
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/dspe"
)

// smallSpec is a workload small enough for unit tests.
func smallSpec(tr dspe.Transport) spec {
	return spec{
		name: "test", algorithm: "D-C", workers: 8, z: 1.4, keys: 500,
		window: 100, shards: 2, transport: tr, repMsgs: 20_000,
	}
}

// exactFinals counts the stream window by window from its key strings,
// independently of groundTruth's rank replay, and returns one Final per
// (window, key).
func exactFinals(s spec, seed uint64, msgs int64) []aggregation.Final {
	g := s.stream(seed, msgs)
	var out []aggregation.Final
	counts := map[string]int64{}
	var order []string
	keys := make([]string, 1)
	for i := int64(0); i < msgs; i++ {
		g.NextBatch(keys)
		if counts[keys[0]] == 0 {
			order = append(order, keys[0])
		}
		counts[keys[0]]++
		if (i+1)%s.window == 0 || i == msgs-1 {
			for _, k := range order {
				out = append(out, aggregation.Final{Window: i / s.window, Key: k, Count: counts[k], Value: counts[k]})
			}
			clear(counts)
			order = order[:0]
		}
	}
	return out
}

func TestCheckerAcceptsExactFinals(t *testing.T) {
	s := smallSpec(dspe.TransportMemory)
	const msgs = 1050 // a short last window
	finals := exactFinals(s, 7, msgs)
	c := newChecker(groundTruth(s, 7, msgs))
	c.start(time.Now())
	// Finals arrive in any order: feed them backwards.
	for i := len(finals) - 1; i >= 0; i-- {
		c.onFinal(finals[i])
	}
	if n := c.failed(); n != 0 {
		t.Fatalf("exact finals: %d windows failed, want 0", n)
	}
	for w, d := range c.done {
		if d == 0 {
			t.Errorf("window %d never completed", w)
		}
	}
}

func TestCheckerCatchesBadFinals(t *testing.T) {
	s := smallSpec(dspe.TransportMemory)
	const msgs = 1000
	finals := exactFinals(s, 3, msgs)
	truth := groundTruth(s, 3, msgs)
	// Pick a final with count > 1 so it can be split.
	victim := -1
	for i, f := range finals {
		if f.Count > 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no final with count > 1")
	}
	cases := map[string]func([]aggregation.Final) []aggregation.Final{
		"dropped": func(fs []aggregation.Final) []aggregation.Final {
			return append(fs[:victim:victim], fs[victim+1:]...)
		},
		"duplicated": func(fs []aggregation.Final) []aggregation.Final {
			return append(fs, fs[victim])
		},
		"miscounted": func(fs []aggregation.Final) []aggregation.Final {
			fs[victim].Count++
			fs[victim].Value++
			return fs
		},
		"wrong value": func(fs []aggregation.Final) []aggregation.Final {
			fs[victim].Value++
			return fs
		},
		"split": func(fs []aggregation.Final) []aggregation.Final {
			extra := fs[victim]
			extra.Count, extra.Value = 1, 1
			fs[victim].Count--
			fs[victim].Value--
			return append(fs, extra)
		},
		"wrong key": func(fs []aggregation.Final) []aggregation.Final {
			fs[victim].Key += "x"
			return fs
		},
		"stray window": func(fs []aggregation.Final) []aggregation.Final {
			return append(fs, aggregation.Final{Window: int64(len(truth)), Key: "k0", Count: 1, Value: 1})
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			fs := corrupt(append([]aggregation.Final(nil), finals...))
			c := newChecker(truth)
			c.start(time.Now())
			for _, f := range fs {
				c.onFinal(f)
			}
			if n := c.failed(); n != 1 {
				t.Fatalf("%d windows failed, want 1", n)
			}
		})
	}
}

func TestCheckedRunMatchesGroundTruth(t *testing.T) {
	for _, tr := range []dspe.Transport{dspe.TransportMemory, dspe.TransportTCP} {
		s := smallSpec(tr)
		src := newSource(s, 5, s.repMsgs)
		chk := newChecker(groundTruth(s, 5, s.repMsgs))
		var tl tally
		res, _ := checkedRun(s, src, chk, nil, &tl)
		if tl.failed != 0 || tl.attempted != int64(len(chk.want)) {
			t.Fatalf("%s: %d of %d windows failed", s.transportName(), tl.failed, tl.attempted)
		}
		if res.Completed != s.repMsgs {
			t.Fatalf("%s: completed %d of %d", s.transportName(), res.Completed, s.repMsgs)
		}
		lat := chk.latencies(src.stamps, nil)
		if len(lat) != len(chk.want) {
			t.Fatalf("%s: %d latency samples for %d windows", s.transportName(), len(lat), len(chk.want))
		}
		for w, l := range lat {
			if l <= 0 {
				t.Errorf("%s: window %d latency %v, want > 0", s.transportName(), w, l)
			}
		}
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	s := smallSpec(dspe.TransportMemory)
	s.rate = 200_000
	const msgs = 20_000 // 100 ms at the offered rate
	src := newSource(s, 9, msgs)
	chk := newChecker(groundTruth(s, 9, msgs))
	var tl tally
	t0 := time.Now()
	checkedRun(s, src, chk, nil, &tl)
	if tl.failed != 0 {
		t.Fatalf("%d windows failed", tl.failed)
	}
	if el := time.Since(t0); el < 95*time.Millisecond {
		t.Fatalf("paced run took %v, want at least the schedule's 100ms", el)
	}
	// Window stamps are the due times of each window's last message.
	for w := 1; w < len(src.stamps); w++ {
		gap := time.Duration(src.stamps[w] - src.stamps[w-1])
		want := time.Duration(float64(s.window) / s.rate * 1e9)
		if d := gap - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("window %d stamp gap %v, want %v", w, gap, want)
		}
	}
}

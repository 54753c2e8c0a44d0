package main

import (
	"hash/maphash"
	"time"

	"slb/internal/aggregation"
)

// windowSum is an order-independent fingerprint of one window's finals:
// the summed counts, the number of finals, and the wrapping sum of a
// hash of each final's (key, count, value). A dropped, duplicated,
// split or miscounted final changes it.
type windowSum struct {
	count, finals int64
	fp            uint64
}

var keySeed = maphash.MakeSeed()

func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *windowSum) add(kh uint64, count, value int64) {
	s.count += count
	s.finals++
	s.fp += mix(kh ^ mix(uint64(count)*0x9e3779b97f4a7c15+uint64(value)))
}

// groundTruth replays the workload's stream of msgs messages and folds
// each window's exact per-key counts into its fingerprint. Under the
// count merger a final's value equals its count.
func groundTruth(s spec, seed uint64, msgs int64) []windowSum {
	g := s.stream(seed, msgs)
	hashes := make([]uint64, s.keys)
	for r := range hashes {
		hashes[r] = keyHash(g.KeyName(r))
	}
	counts := make([]int64, s.keys)
	var touched []int
	out := make([]windowSum, (msgs+s.window-1)/s.window)
	for i := int64(0); i < msgs; i++ {
		r, ok := g.NextRank()
		if !ok {
			break
		}
		if counts[r] == 0 {
			touched = append(touched, r)
		}
		counts[r]++
		if (i+1)%s.window == 0 || i == msgs-1 {
			ws := &out[i/s.window]
			for _, t := range touched {
				ws.add(hashes[t], counts[t], counts[t])
				counts[t] = 0
			}
			touched = touched[:0]
		}
	}
	return out
}

// checker folds the finals of one Run into per-window fingerprints and
// records when each window's finals first sum to the window's size.
// OnFinal calls are serialized by dspe, so it needs no locking.
type checker struct {
	want  []windowSum
	got   []windowSum
	done  []int64 // ns since base; 0 until the window completes
	stray int64   // finals for windows outside the stream
	base  time.Time
}

func newChecker(want []windowSum) *checker {
	return &checker{want: want, got: make([]windowSum, len(want)), done: make([]int64, len(want))}
}

// start clears the checker for a Run whose clock origin is base.
func (c *checker) start(base time.Time) {
	c.base = base
	clear(c.got)
	clear(c.done)
	c.stray = 0
}

func (c *checker) onFinal(f aggregation.Final) {
	if f.Window < 0 || f.Window >= int64(len(c.got)) {
		c.stray++
		return
	}
	g := &c.got[f.Window]
	g.add(keyHash(f.Key), f.Count, f.Value)
	if g.count == c.want[f.Window].count {
		c.done[f.Window] = int64(time.Since(c.base))
	}
}

// failed returns the number of windows whose finals differ from ground
// truth; finals for windows outside the stream count as failures too.
func (c *checker) failed() int64 {
	var n int64
	for w := range c.want {
		if c.got[w] != c.want[w] {
			n++
		}
	}
	return min(n+c.stray, int64(len(c.want)))
}

// latencies appends, for every window whose finals match ground truth,
// the time from its creation stamp to its completion, in ns.
func (c *checker) latencies(stamps []int64, dst []float64) []float64 {
	for w := range c.want {
		if c.done[w] > 0 && c.got[w] == c.want[w] {
			dst = append(dst, float64(c.done[w]-stamps[w]))
		}
	}
	return dst
}

package main

import (
	"time"

	"slb/internal/stream"
	"slb/internal/workload"
)

// source wraps a workload generator for dspe.Run. It records, per
// tumbling window, the creation stamp of the window's last message, and
// in the open loop it releases slabs on a fixed schedule.
//
// dspe draws slabs under one lock (slabSource), so NextBatch calls are
// serialized and see the stream in emission order; source needs no
// locking of its own.
//
// In the closed loop the creation stamp is the wall time of the draw.
// In the open loop message i is due at origin + i/rate, where origin is
// the first draw; a slab is released once its last message is due, and
// the stamp is the due time, so time a stall imposes on later messages
// counts against them. lags records, per slab, how late the spouts
// pulled it against the due time of its first message.
type source struct {
	gen    *workload.Zipf
	window int64
	rate   float64

	base   time.Time // clock origin of stamps, set by start
	pos    int64
	origin int64 // open loop: ns since base of the first draw; -1 before it

	stamps []int64   // per window: ns since base
	lags   []float64 // open loop: per slab, ns
}

// newSource returns the source of spec s's stream of msgs messages.
func newSource(s spec, seed uint64, msgs int64) *source {
	return &source{
		gen: s.stream(seed, msgs), window: s.window, rate: s.rate,
		stamps: make([]int64, (msgs+s.window-1)/s.window), origin: -1,
	}
}

// start rewinds the stream and sets the clock origin for one Run.
func (s *source) start(base time.Time) {
	s.base = base
	s.Reset()
	s.origin = -1
	s.lags = s.lags[:0]
	clear(s.stamps)
}

func (s *source) now() int64 { return int64(time.Since(s.base)) }

// due returns message i's due time in ns since base (open loop).
func (s *source) due(i int64) int64 {
	return s.origin + int64(float64(i)*1e9/s.rate)
}

// NextBatch implements stream.BatchGenerator.
func (s *source) NextBatch(dst []string) int {
	n := s.gen.NextBatch(dst)
	if n == 0 {
		return 0
	}
	first, last := s.pos, s.pos+int64(n)-1
	s.pos += int64(n)
	drawn := s.now()
	if s.rate > 0 {
		if s.origin < 0 {
			s.origin = drawn
		}
		s.lags = append(s.lags, float64(max(0, drawn-s.due(first))))
		if wait := s.due(last) - s.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
	stamp := func(i int64) int64 {
		if s.rate > 0 {
			return s.due(i)
		}
		return drawn
	}
	for w := first / s.window; w <= last/s.window; w++ {
		if end := (w+1)*s.window - 1; end >= first && end <= last {
			s.stamps[w] = stamp(end)
		}
	}
	if last == s.gen.Len()-1 {
		// The final window may be short; its last message is the stream's.
		s.stamps[last/s.window] = stamp(last)
	}
	return n
}

// Next implements stream.Generator through NextBatch.
func (s *source) Next() (string, bool) {
	var one [1]string
	if s.NextBatch(one[:]) == 0 {
		return "", false
	}
	return one[0], true
}

// Len implements stream.Generator.
func (s *source) Len() int64 { return s.gen.Len() }

// Reset implements stream.Generator. dspe calls it before and after a
// Run; the stamps survive it.
func (s *source) Reset() {
	s.gen.Reset()
	s.pos = 0
}

var _ stream.BatchGenerator = (*source)(nil)

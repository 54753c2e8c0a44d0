package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/hashing"
	"slb/internal/spacesaving"
	"slb/internal/telemetry"
	"slb/internal/transport"
	"slb/internal/workload"
)

// slabMsgs is the replay's slab size, dspe's default spout batch.
const slabMsgs = 64

// burstMsgs is how many messages the replay sends before it flushes
// every link and drains them: the order of the TCP plane's adaptive ack
// window, so frames coalesce as they do under a running engine.
const burstMsgs = 4096

// replay is the single-goroutine staged replay of a workload's stream
// through the layers' public calls, in the order a message crosses
// them: NextBatch → hashing.Digest → a standalone spacesaving.Summary →
// RouteBatchDigests per source partitioner → transport.Link
// SendSlab/Flush/RecvSlab on the workload's backend →
// aggregation.Accumulator AddSample/FlushBefore →
// ShardedDriver.MergeShard → finals. With a tracer attached every call
// is a span; without one it is the single-threaded baseline.
type replay struct {
	s      spec
	gen    *workload.Zipf
	parts  []core.Partitioner
	sketch *spacesaving.Summary
	fabric transport.Transport
	reg    *telemetry.Registry // wire counters (TCP)
	links  [][]*transport.Link // [source][worker]
	accs   []*aggregation.Accumulator
	sd     *aggregation.ShardedDriver
	chk    *checker
	tr     *tracer

	openNs, openBytes int64
	rtt               []float64 // per burst: Flush → last message received, ns
	merged            int64
}

// replayOut is what one replay measured.
type replayOut struct {
	msgs      int64
	wall      time.Duration
	threadCPU time.Duration // the replay goroutine's own thread
	procCPU   time.Duration // the whole process
}

// newReplay builds the layers for a replay of msgs messages and opens
// one link per (source, worker) pair on the workload's backend.
func newReplay(s spec, seed uint64, msgs int64, truth []windowSum, tr *tracer) (*replay, error) {
	r := &replay{
		s:      s,
		gen:    s.stream(seed, msgs),
		sketch: spacesaving.New(4 * (5*s.workers + 1)), // core's default capacity 4·(1/θ+1), θ = 1/(5n)
		sd:     aggregation.NewShardedDriver(s.workers, s.shards, s.window, msgs, nil),
		chk:    newChecker(truth),
		tr:     tr,
		reg:    telemetry.NewRegistry(),
	}
	for i := 0; i < sources; i++ {
		p, err := core.New(s.algorithm, core.Config{Workers: s.workers, Seed: coreSeed, Instance: i})
		if err != nil {
			return nil, err
		}
		r.parts = append(r.parts, p)
	}
	for w := 0; w < s.workers; w++ {
		r.accs = append(r.accs, aggregation.NewAccumulator(w))
	}
	heap := newHeapCounter()
	_, b0 := heap.read()
	t0 := time.Now()
	if s.transport == dspe.TransportTCP {
		tcp, err := transport.NewTCP(r.reg)
		if err != nil {
			return nil, err
		}
		r.fabric = tcp
	} else {
		r.fabric = transport.NewMemory()
	}
	r.links = make([][]*transport.Link, sources)
	for src := range r.links {
		for w := 0; w < s.workers; w++ {
			l, err := r.fabric.Open(fmt.Sprintf("s%d>w%d", src, w), burstMsgs)
			if err != nil {
				r.close()
				return nil, err
			}
			r.links[src] = append(r.links[src], l)
		}
	}
	r.openNs = int64(time.Since(t0))
	_, b1 := heap.read()
	r.openBytes = int64(b1 - b0)
	return r, nil
}

// run replays the whole stream and closes the fabric.
func (r *replay) run() (replayOut, error) {
	defer r.close()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s := r.s
	msgs := r.gen.Len()
	keys := make([]string, slabMsgs)
	digs := make([]core.KeyDigest, slabMsgs)
	own := make([]hashing.KeyDigest, slabMsgs)
	dsts := make([]int, slabMsgs)
	pend := make([][]transport.Msg, s.workers)
	sent := make([][]int, sources) // per burst, messages sent per link
	for i := range sent {
		sent[i] = make([]int, s.workers)
	}
	buf := make([]transport.Msg, burstMsgs)
	type segment struct{ worker, from, to int } // buf[from:to] came in for worker
	var segs []segment
	var scratch []aggregation.Partial
	shardSlabs := make([][]aggregation.Partial, s.shards)

	r.chk.start(time.Now())
	tr := r.tr
	t0, thr0, proc0 := time.Now(), cpuTime(rusageThread), cpuTime(syscall.RUSAGE_SELF)
	var seq int64
	var burst, slab int32
	for seq < msgs {
		bsp := tr.open(spanBurst, -1, burst, -1)
		// Spout side: draw, digest, sketch, route, send.
		for b := 0; b < burstMsgs/slabMsgs && seq < msgs; b++ {
			src := int(slab) % sources
			ssp := tr.open(spanSlab, bsp, burst, slab)
			m := tr.begin()
			n := r.gen.NextBatch(keys)
			tr.end(layerGen, m, ssp, n)
			if n == 0 {
				tr.close(ssp)
				break
			}
			m = tr.begin()
			for i := 0; i < n; i++ {
				own[i] = hashing.Digest(keys[i])
			}
			tr.end(layerDigest, m, ssp, n)
			m = tr.begin()
			for i := 0; i < n; i++ {
				r.sketch.OfferDigest(own[i], keys[i])
			}
			tr.end(layerOffer, m, ssp, n)
			m = tr.begin()
			core.RouteBatchDigests(r.parts[src], keys[:n], digs, dsts)
			tr.end(layerRoute, m, ssp, n)
			m = tr.begin()
			r.sd.ObserveEmits(seq, digs[:n])
			tr.end(layerMerge, m, ssp, 0)
			for i := 0; i < n; i++ {
				w := dsts[i]
				pend[w] = append(pend[w], transport.Msg{
					Dig: uint64(digs[i]), Window: (seq + int64(i)) / s.window,
					Weight: 1, Src: int32(src), Key: keys[i],
				})
			}
			m = tr.begin()
			for w := range pend {
				if len(pend[w]) == 0 {
					continue
				}
				if err := r.links[src][w].SendSlab(pend[w]); err != nil {
					return replayOut{}, err
				}
				sent[src][w] += len(pend[w])
				pend[w] = pend[w][:0]
			}
			tr.end(layerSend, m, ssp, n)
			tr.close(ssp)
			seq += int64(n)
			slab++
		}
		// Flush every touched link, then drain them: the bolt side.
		m := tr.begin()
		for src := range sent {
			for w, k := range sent[src] {
				if k > 0 {
					if err := r.links[src][w].Sender.Flush(); err != nil {
						return replayOut{}, err
					}
				}
			}
		}
		tr.end(layerSend, m, bsp, 0)
		// Receive everything first, so the round trip is Flush → last
		// message received, then apply it at the bolts.
		flushed := time.Now()
		got, segs := 0, segs[:0]
		for src := range sent {
			for w := range sent[src] {
				for sent[src][w] > 0 {
					m := tr.begin()
					n, done := r.links[src][w].RecvSlab(buf[got : got+sent[src][w]])
					if n == 0 {
						if done {
							return replayOut{}, fmt.Errorf("link s%d>w%d closed with %d messages unread", src, w, sent[src][w])
						}
						runtime.Gosched() // the TCP reader goroutine is still decoding
						continue
					}
					tr.end(layerRecv, m, bsp, n)
					segs = append(segs, segment{w, got, got + n})
					sent[src][w] -= n
					got += n
				}
			}
		}
		r.rtt = append(r.rtt, float64(time.Since(flushed)))
		for _, sg := range segs {
			m := tr.begin()
			acc := r.accs[sg.worker]
			for i := sg.from; i < sg.to; i++ {
				msg := &buf[i]
				acc.AddSample(msg.Window, core.KeyDigest(msg.Dig), msg.Key, 1, msg.Weight)
			}
			tr.end(layerAdd, m, bsp, sg.to-sg.from)
		}
		// Windows before the current one are complete: close them.
		r.flushBolts(seq/s.window, &scratch, shardSlabs, bsp)
		tr.close(bsp)
		burst++
	}
	r.flushBolts(1<<62, &scratch, shardSlabs, -1)
	m := tr.begin()
	for sh := 0; sh < s.shards; sh++ {
		r.sd.FinishShard(sh, r.chk.onFinal)
	}
	tr.end(layerMerge, m, -1, 0)
	out := replayOut{
		msgs:      seq,
		wall:      time.Since(t0),
		threadCPU: cpuTime(rusageThread) - thr0,
		procCPU:   cpuTime(syscall.RUSAGE_SELF) - proc0,
	}
	r.merged = r.sd.Stats().Partials
	return out, nil
}

// close shuts every link's sender, then the fabric.
func (r *replay) close() {
	for _, row := range r.links {
		for _, l := range row {
			l.Sender.Close()
		}
	}
	r.fabric.Close()
}

// flushBolts closes every bolt's windows before `before` and merges the
// partials into their reducer shards.
func (r *replay) flushBolts(before int64, scratch *[]aggregation.Partial, shardSlabs [][]aggregation.Partial, parent int32) {
	tr := r.tr
	for _, acc := range r.accs {
		m := tr.begin()
		*scratch = acc.FlushBefore(before, (*scratch)[:0])
		tr.end(layerFlush, m, parent, len(*scratch))
		if len(*scratch) == 0 {
			continue
		}
		for i := range *scratch {
			p := (*scratch)[i]
			sh := aggregation.ShardFor(p.Digest, r.s.shards)
			shardSlabs[sh] = append(shardSlabs[sh], p)
		}
		m = tr.begin()
		for sh := range shardSlabs {
			if len(shardSlabs[sh]) > 0 {
				r.sd.MergeShard(sh, shardSlabs[sh], r.chk.onFinal)
				shardSlabs[sh] = shardSlabs[sh][:0]
			}
		}
		tr.end(layerMerge, m, parent, len(*scratch))
	}
}

package dspe

// pipeline_ring.go is Pipeline's ring dataplane (PipelineConfig.
// Dataplane == DataplaneRing). Where the channel plane gives each
// executor one bounded MPSC channel that every upstream sender shares,
// the ring plane gives every (sender, receiver) pair of each edge its
// own SPSC ring: a stage with U upstream executors and P of its own has
// U×P rings, each lock-free, each an arena the tuples live in. An
// executor sweeps its U per-sender rings with batched Acquire/Release;
// a sender pushes straight into the target executor's ring.
//
// Termination is executor-driven instead of the channel plane's
// stage-by-stage close: a sender closes its downstream rings when it
// exits, and an executor exits once ALL of its input rings are drained
// — which (inductively, spouts first) happens exactly when the stage's
// whole upstream is done, so a finite stream still drains completely
// and in stage order.

import (
	"sync"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/ring"
)

// pushOne blocks until v is in the ring (the edge graph is acyclic, so
// the consumer is always draining).
func pushOne[T any](q *ring.SPSC[T], v T) {
	spins := 0
	for !q.TryPush(v) {
		backoff(&spins)
	}
}

// runRing executes the pipeline on per-edge SPSC rings.
func (p *Pipeline) runRing(cfg PipelineConfig) (PipelineResult, error) {
	queueLen := cfg.QueueLen
	if queueLen <= 0 {
		queueLen = 128
	}

	// edges[s][k][i] is the ring from sender k of stage s's upstream
	// (spout k for s == 0, executor k of stage s-1 otherwise) into
	// executor i of stage s.
	edges := make([][][]*ring.SPSC[pipeTuple], len(p.stages))
	for s, spec := range p.stages {
		senders := p.spouts
		if s > 0 {
			senders = p.stages[s-1].parallelism
		}
		edges[s] = make([][]*ring.SPSC[pipeTuple], senders)
		for k := range edges[s] {
			edges[s][k] = make([]*ring.SPSC[pipeTuple], spec.parallelism)
			for i := range edges[s][k] {
				edges[s][k][i] = ring.New[pipeTuple](queueLen)
			}
		}
	}

	senderFor := func(stage int, instance int) (core.Partitioner, error) {
		spec := p.stages[stage]
		c := cfg.Core
		c.Workers = spec.parallelism
		c.Instance = instance
		return core.New(spec.grouping, c)
	}
	for s := range p.stages {
		if _, err := senderFor(s, 0); err != nil {
			return PipelineResult{}, err
		}
	}

	counts := make([][]int64, len(p.stages))
	accs := make([][]*aggregation.Accumulator, len(p.stages))
	for s, spec := range p.stages {
		counts[s] = make([]int64, spec.parallelism)
		if spec.aggWindow > 0 {
			accs[s] = make([]*aggregation.Accumulator, spec.parallelism)
			for ex := range accs[s] {
				accs[s][ex] = aggregation.NewAccumulatorMerger(ex, spec.merger)
			}
		}
	}
	lat := metrics.NewQuantiles(1 << 15)
	var latMu sync.Mutex

	var execWG sync.WaitGroup
	for s := range p.stages {
		spec := p.stages[s]
		for ex := 0; ex < spec.parallelism; ex++ {
			execWG.Add(1)
			go func(s, ex int) {
				defer execWG.Done()
				spec := p.stages[s]
				// This executor's input rings: one per upstream sender.
				ins := make([]*ring.SPSC[pipeTuple], len(edges[s]))
				for k := range edges[s] {
					ins[k] = edges[s][k][ex]
				}
				// Downstream: this executor is sender `ex` on edge s+1.
				var down core.Partitioner
				var downDig core.DigestRouter
				var outs []*ring.SPSC[pipeTuple]
				if s+1 < len(p.stages) {
					var err error
					down, err = senderFor(s+1, ex+spec.parallelism)
					if err != nil {
						panic(err) // validated before launch
					}
					downDig, _ = down.(core.DigestRouter)
					outs = edges[s+1][ex]
				}
				var cur pipeTuple
				send := func(tp pipeTuple) {
					var w int
					if downDig != nil {
						w = downDig.RouteDigest(tp.dig, tp.key)
					} else {
						w = down.Route(tp.key)
					}
					pushOne(outs[w], tp)
				}
				reDigest := func(key string) core.KeyDigest {
					if key == cur.key {
						return cur.dig
					}
					return core.Digest(key)
				}
				emit := func(key string) {
					if down == nil {
						return
					}
					send(pipeTuple{key: key, dig: reDigest(key), root: cur.root, seq: cur.seq, window: cur.window, weight: cur.weight})
				}
				emitW := func(key string, count int64) {
					if down == nil {
						return
					}
					send(pipeTuple{key: key, dig: reDigest(key), root: cur.root, seq: cur.seq, window: cur.window, weight: count})
				}
				var acc *aggregation.Accumulator
				var buf []aggregation.Partial
				if spec.aggWindow > 0 {
					acc = accs[s][ex]
				}
				flushEmit := func(before int64, root time.Time) {
					buf = acc.FlushBefore(before, buf[:0])
					if down == nil {
						return
					}
					for i := range buf {
						pp := &buf[i]
						weight := pp.Count
						if spec.merger != nil {
							weight = spec.merger.Result(pp.Val)
						}
						send(pipeTuple{
							key:    pp.Key,
							dig:    pp.Digest,
							root:   root,
							seq:    pp.Window * spec.aggWindow,
							window: pp.Window,
							weight: weight,
						})
					}
				}
				last := s == len(p.stages)-1
				drained := make([]bool, len(ins))
				remaining := len(ins)
				spins := 0
				for remaining > 0 {
					progressed := false
					for k, q := range ins {
						if drained[k] {
							continue
						}
						a := q.Acquire(64)
						if a == nil {
							if q.Drained() {
								drained[k] = true
								remaining--
								progressed = true
							}
							continue
						}
						for i := range a {
							tp := a[i]
							if spec.service > 0 {
								time.Sleep(spec.service)
							}
							cur = tp
							switch {
							case acc != nil:
								w := tp.seq / spec.aggWindow
								if wm, ok := acc.Watermark(); ok && w > wm {
									flushEmit(w-1, tp.root)
								}
								if spec.merger != nil {
									acc.AddSample(w, tp.dig, tp.key, 1, tp.weight)
								} else {
									acc.AddN(w, tp.dig, tp.key, tp.weight)
								}
							case spec.wfn != nil:
								spec.wfn(tp.key, tp.window, tp.weight, emitW)
							default:
								spec.fn(tp.key, emit)
							}
							counts[s][ex]++
							if last {
								latMu.Lock()
								lat.Add(float64(time.Since(tp.root)))
								latMu.Unlock()
							}
						}
						q.Release(len(a))
						progressed = true
					}
					if progressed {
						spins = 0
					} else {
						backoff(&spins)
					}
				}
				if acc != nil {
					flushEmit(1<<62, cur.root)
				}
				for _, q := range outs {
					q.Close()
				}
			}(s, ex)
		}
	}

	p.gen.Reset()
	limit := p.gen.Len()
	if cfg.Messages > 0 && cfg.Messages < limit {
		limit = cfg.Messages
	}
	const spoutBatch = 64
	nextSlab, drawn := slabSource(p.gen, limit)

	start := time.Now()
	var spoutWG sync.WaitGroup
	for sp := 0; sp < p.spouts; sp++ {
		part, err := senderFor(0, sp)
		if err != nil {
			return PipelineResult{}, err
		}
		spoutWG.Add(1)
		go func(sp int, part core.Partitioner) {
			defer spoutWG.Done()
			outs := edges[0][sp]
			keys := make([]string, spoutBatch)
			digs := make([]core.KeyDigest, spoutBatch)
			dsts := make([]int, spoutBatch)
			for {
				n, base := nextSlab(keys, nil)
				if n == 0 {
					break
				}
				core.RouteBatchDigests(part, keys[:n], digs, dsts)
				for i := 0; i < n; i++ {
					pushOne(outs[dsts[i]], pipeTuple{key: keys[i], dig: digs[i], root: time.Now(), seq: base + int64(i), weight: 1})
				}
			}
			for _, q := range outs {
				q.Close()
			}
		}(sp, part)
	}

	spoutWG.Wait()
	execWG.Wait()
	elapsed := time.Since(start)

	res := PipelineResult{
		Emitted: drawn(),
		Elapsed: elapsed,
		P50:     time.Duration(lat.Quantile(0.50)),
		P95:     time.Duration(lat.Quantile(0.95)),
		P99:     time.Duration(lat.Quantile(0.99)),
	}
	for s, spec := range p.stages {
		sr := StageResult{Name: spec.name, Loads: counts[s]}
		for _, c := range counts[s] {
			sr.Processed += c
		}
		sr.Imbalance = metrics.Imbalance(counts[s])
		for _, acc := range accs[s] {
			sr.AggPartials += acc.Flushed()
			sr.AggWindows += acc.Closed()
		}
		res.Stages = append(res.Stages, sr)
	}
	p.gen.Reset()
	return res, nil
}

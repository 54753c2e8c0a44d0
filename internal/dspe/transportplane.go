package dspe

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/stream"
	"slb/internal/transport"
)

// transportplane.go is Run's topology: every spout→bolt and
// bolt→reducer hop is a named internal/transport link. On the memory
// backend a link is one SPSC ring (slab sends, polling consumers, and a
// zero-copy Grant/Publish path the spouts write messages through); on
// the TCP backend every hop additionally crosses a loopback socket
// through the columnar frame codec, which is what makes the network's
// cost measurable.
//
// Aggregation runs through a combiner ROOT per reducer shard: bolt
// partials travel to the shards with their worker identity intact on
// the wire, each shard records every slab's (window, key, worker)
// replica triples on receipt, folds the partials into an
// aggregation.Combiner, and hands its driver each window once it is
// complete — so the driver merges exactly one combined partial per
// (window, key) instead of one per (window, key, worker), and the
// merge cost drops from the replication factor to 1. Bolts keep no
// driver state. Finals equal a sequential per-(window, key) fold of
// the stream on both backends, and at Sources=1 replication equals
// eventsim's, pinned by TestTransportPlaneParity.
//
// Bolts are TASKS, not goroutines. Each bolt's state lives in a bolt
// value whose poll sweeps its input links once without blocking; E
// executor goroutines host the bolts, executor e those with w ≡ e
// (mod E), and sweep them round-robin, backing off only after a sweep
// in which none of its bolts made progress — as Storm runs many tasks
// on one executor thread. E is derived, never configured: with
// Config.ServiceTime == 0, E = min(Workers, GOMAXPROCS), so a wide
// topology (hundreds of bolts, about one message per bolt per wake)
// pays no goroutine switch per message; with ServiceTime > 0,
// E = Workers, because a simulated per-message service time must not
// delay the bolts sharing an executor — every bolt keeps its own server,
// as the paper's queueing experiments assume. Routing, links, shards
// and acks are the same either way, and so are the results.
//
// Control stays in-process by design: the per-source in-flight window
// (ack semantics) is a padded atomic counter, and window-completeness
// thresholds are counted at the spouts (ObserveEmits) before any
// message of the slab is sent. The transport models the DATA hops —
// the paper's serialization/framing/link cost — not a distributed
// control protocol.
//
// Over TCP the fixed default window (100) is ack-latency bound: each
// burst waits out a loopback round trip before the next can start. When
// the caller left Config.Window at its default, the spout therefore
// grows its window ADAPTIVELY: every time it finds itself blocked on
// acks with all links flushed, it doubles the window, up to
// adaptiveWindowMax — converging on a depth where the pipe stays full
// without the caller having to know the link's bandwidth-delay product.
// An explicitly set Window is always honored as a fixed cap (the
// `transport` experiment pins Window=4096 on both backends so its A/B
// stays one). Window depth never changes results: each spout routes its
// own stream deterministically, so finals and replication stay
// bit-equal regardless of ack timing.

// adaptiveWindowMax caps the adaptive ack window's growth; past this
// depth a loopback link is bandwidth- not latency-bound and deeper
// windows only add buffer bloat.
const adaptiveWindowMax = 8192

// partialRingCap sizes the bolt→shard links: large enough that a whole
// window flush usually publishes without waiting, small enough to keep
// the receive rings resident.
const partialRingCap = 1024

// latSampleMask subsamples the per-message latency instrumentation: one
// message in 8 is clocked (spout timestamp, bolt nanotime) and fed to
// the quantile sketch. The percentiles are statistical estimates either
// way (the sketch subsamples internally past its capacity); clocking
// every message would spend two nanotime reads per message. Loads and
// Completed still count every message.
const latSampleMask = 7

// ringCapFor sizes the spout→bolt links: at least two full in-flight
// windows so a spout is never throttled by link capacity before the ack
// window throttles it, and at least two slabs.
func ringCapFor(cfg Config) int {
	c := 2 * cfg.Window
	if b := 2 * cfg.Batch; b > c {
		c = b
	}
	if c < 64 {
		c = 64
	}
	return c
}

// backoff yields after a fruitless poll, escalating from Gosched to a
// short sleep so idle goroutines (an executor whose bolts the
// partitioner starves, a shard between flushes) do not burn a core.
// Callers reset *spins to 0 on progress.
func backoff(spins *int) {
	*spins++
	if *spins < 256 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// inflightCounter is one source's atomic in-flight window, padded so
// the counters of different sources never share a cache line.
type inflightCounter struct {
	n atomic.Int64
	_ [56]byte
}

// partialMsg packs one bolt partial into the wire shape.
func partialMsg(p *aggregation.Partial) transport.Msg {
	return transport.Msg{
		Dig:    uint64(p.Digest),
		Window: p.Window,
		Weight: p.Count,
		Val0:   p.Val[0],
		Val1:   p.Val[1],
		Src:    p.Worker,
		Key:    p.Key,
	}
}

// runTransport executes the topology with every data hop on cfg's
// transport backend. cfg has defaults applied; parts are the
// per-source partitioners; limit is the message cap.
func runTransport(gen stream.Generator, cfg Config, parts []core.Partitioner, limit int64) (Result, error) {
	shards := cfg.AggShards
	agg := cfg.AggWindow > 0
	pt := newPlaneTelemetry(cfg)

	var (
		fabric transport.Transport
		tcp    *transport.TCP
		err    error
	)
	switch cfg.Transport {
	case TransportMemory:
		fabric = transport.NewMemory()
	case TransportTCP:
		tcpCfg := transport.TCPConfig{}
		if cfg.Chaos != nil {
			// Chaos runs sever links on purpose: shrink the delivery
			// timers so each recovery episode costs milliseconds, and
			// widen the reconnect budget so the schedule, not the budget,
			// decides how much abuse the run takes.
			tcpCfg = transport.TCPConfig{
				ResendTimeout: 25 * time.Millisecond,
				RedialBackoff: 200 * time.Microsecond,
				MaxReconnects: 1 << 20,
			}
		}
		tcp, err = transport.NewTCPWithConfig(cfg.Telemetry, tcpCfg)
		if err != nil {
			return Result{}, err
		}
		fabric = tcp
	default:
		return Result{}, fmt.Errorf("dspe: unknown transport %d", cfg.Transport)
	}
	var chaos *transport.Chaos
	if cfg.Chaos != nil {
		chaos = transport.NewChaos(fabric, *cfg.Chaos)
		fabric = chaos
	}
	defer fabric.Close()

	// Spout→bolt links: one per (source, bolt) pair, so each link has
	// one producer and one consumer. Bolt→shard links likewise.
	// When the ack window may grow adaptively, the receive rings are
	// deepened so the grown window — not ring capacity — bounds the
	// in-flight depth (skew can concentrate a whole window on one edge).
	linkCap := ringCapFor(cfg)
	if cfg.adaptiveWindow && cfg.Transport == TransportTCP && linkCap < adaptiveWindowMax/2 {
		linkCap = adaptiveWindowMax / 2
	}
	in := make([][]*transport.Link, cfg.Sources)
	for s := range in {
		in[s] = make([]*transport.Link, cfg.Workers)
		for w := range in[s] {
			if in[s][w], err = fabric.Open(fmt.Sprintf("s%d>w%d", s, w), linkCap); err != nil {
				return Result{}, err
			}
		}
	}
	pt.observeQueues(in)
	var boltOut [][]*transport.Link
	if agg {
		boltOut = make([][]*transport.Link, cfg.Workers)
		for w := range boltOut {
			boltOut[w] = make([]*transport.Link, shards)
			for r := range boltOut[w] {
				if boltOut[w][r], err = fabric.Open(fmt.Sprintf("w%d>r%d", w, r), partialRingCap); err != nil {
					return Result{}, err
				}
			}
		}
	}
	inflight := make([]inflightCounter, cfg.Sources)

	// First asynchronous link failure (TCP only); spouts and bolts stop
	// sending when set, and Run surfaces it after the drain.
	var firstErr atomic.Pointer[error]
	fail := func(e error) {
		if e != nil {
			firstErr.CompareAndSwap(nil, &e)
		}
	}
	failed := func() bool { return firstErr.Load() != nil }

	svcFor := func(w int) time.Duration {
		d := cfg.ServiceTime
		if f, ok := cfg.SlowFactor[w]; ok {
			d = time.Duration(float64(d) * f)
		}
		return d
	}

	var (
		sd         *aggregation.ShardedDriver
		reduceBusy []time.Duration
		reduceWG   sync.WaitGroup
		onFinal    func(aggregation.Final)
	)
	if agg {
		sd = aggregation.NewShardedDriver(cfg.Workers, shards, cfg.AggWindow, limit, cfg.AggMerger)
		pt.observeReduce(sd)
		reduceBusy = make([]time.Duration, shards)
		onFinal = cfg.OnFinal
		if onFinal != nil && shards > 1 {
			var finalMu sync.Mutex
			user := cfg.OnFinal
			onFinal = func(f aggregation.Final) {
				finalMu.Lock()
				user(f)
				finalMu.Unlock()
			}
		}
		for r := 0; r < shards; r++ {
			reduceWG.Add(1)
			legs := make([]*transport.Link, cfg.Workers)
			for w := range legs {
				legs[w] = boltOut[w][r]
			}
			go func(r int) {
				defer reduceWG.Done()
				reduceBusy[r] = combineRoot(cfg, sd, r, legs, onFinal, pt)
			}(r)
		}
	}

	stats := make([]boltStats, cfg.Workers)
	bolts := make([]*bolt, cfg.Workers)
	for w := range bolts {
		b := &bolt{
			w:         w,
			in:        make([]*transport.Link, cfg.Sources),
			inflight:  inflight,
			pt:        pt,
			fail:      fail,
			failed:    failed,
			svc:       svcFor(w),
			spin:      cfg.Spin,
			st:        &stats[w],
			buf:       make([]transport.Msg, cfg.Batch),
			drained:   make([]bool, cfg.Sources),
			remaining: cfg.Sources,
		}
		b.st.lat = metrics.NewQuantiles(1 << 14)
		for s := range in {
			b.in[s] = in[s][w]
		}
		if agg {
			b.out = boltOut[w]
			b.acc = aggregation.NewAccumulatorMerger(w, cfg.AggMerger)
			b.pendP = make([][]transport.Msg, shards)
		}
		bolts[w] = b
	}
	execs := executorCount(cfg)
	var executors sync.WaitGroup
	for e := 0; e < execs; e++ {
		hosted := make([]*bolt, 0, (cfg.Workers+execs-1)/execs)
		for w := e; w < cfg.Workers; w += execs {
			hosted = append(hosted, bolts[w])
		}
		executors.Add(1)
		go func() {
			defer executors.Done()
			runExecutor(hosted, pt)
		}()
	}

	nextSlab, _ := slabSource(gen, limit)
	genVals := stream.Values(gen) != nil
	var tickedWindow atomic.Int64

	start := time.Now()
	var spouts sync.WaitGroup
	for s := 0; s < cfg.Sources; s++ {
		spouts.Add(1)
		go func(s int) {
			defer spouts.Done()
			defer func() {
				for w := range in[s] {
					in[s][w].Sender.Close()
				}
			}()
			p := parts[s]
			keys := make([]string, cfg.Batch)
			dsts := make([]int, cfg.Batch)
			var digs []core.KeyDigest
			var vals []int64
			if agg {
				digs = make([]core.KeyDigest, cfg.Batch)
				// Sampling contract: AggValue hook > recorded generator
				// values > constant 1 (see Config.AggValue).
				if cfg.AggValue == nil && genVals {
					vals = make([]int64, cfg.Batch)
				}
			}
			// Reused per-destination staging, sent with one SendSlab per
			// touched link, then flushed before waiting on acks (a tuple
			// sitting in a coalescing buffer can never be acked). Links
			// whose sender grants in-place writes (the memory backend)
			// skip the staging copy entirely: messages are constructed
			// directly in granted ring slots and published per batch.
			pend := make([][]transport.Msg, cfg.Workers)
			granters := make([]transport.SlabGranter, cfg.Workers)
			open := make([][]transport.Msg, cfg.Workers)
			used := make([]int, cfg.Workers)
			for w := range pend {
				pend[w] = make([]transport.Msg, 0, cfg.Batch)
				if g, ok := in[s][w].Sender.(transport.SlabGranter); ok {
					granters[w] = g
				}
			}
			// win is the spout's in-flight ack window. With the window
			// left at its default over TCP it grows adaptively: an ack
			// stall with every link flushed means the window, not the
			// bolts, is the limiter, so it doubles (up to
			// adaptiveWindowMax) until the pipe stays full.
			win := int64(cfg.Window)
			adaptive := cfg.adaptiveWindow && cfg.Transport == TransportTCP
			pt.setAckWindow(s, win)
			var seq int64 // per-spout emit counter for latency sampling
			for !failed() {
				n, base := nextSlab(keys, vals)
				if n == 0 {
					break
				}
				spins := 0
				var t0 time.Time
				if pt != nil {
					t0 = time.Now()
				}
				if inflight[s].n.Load() > win-int64(n) {
					// About to block on acks: flush every link first, so
					// coalesced bytes become visible work downstream (a
					// tuple sitting in a coalescing buffer can never be
					// acked). Until the window fills, frames are left to
					// the byte-threshold coalescer — flushing per batch
					// would cap TCP frames at a few hundred bytes.
					for w := range in[s] {
						if err := in[s][w].Sender.Flush(); err != nil {
							fail(err)
						}
					}
					stalled := false
					for inflight[s].n.Load() > win-int64(n) && !failed() {
						stalled = true
						backoff(&spins)
					}
					if stalled && adaptive && win < adaptiveWindowMax {
						win *= 2
						if win > adaptiveWindowMax {
							win = adaptiveWindowMax
						}
						pt.setAckWindow(s, win)
					}
				}
				if pt != nil {
					pt.addAckWait(s, time.Since(t0))
					t0 = time.Now()
				}
				inflight[s].n.Add(int64(n))
				if agg {
					core.RouteBatchDigests(p, keys[:n], digs, dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
					// Count the slab toward its windows' per-shard completeness
					// thresholds BEFORE any of its messages is sent: a threshold
					// must never lag a mergeable partial. No-op with one shard.
					sd.ObserveEmits(base, digs[:n])
					if cw := (base + int64(n) - 1) / cfg.AggWindow; cw > tickedWindow.Load() {
						for {
							seen := tickedWindow.Load()
							if cw <= seen {
								break
							}
							if tickedWindow.CompareAndSwap(seen, cw) {
								// The winner broadcasts through its OWN links
								// (they are SPSC; ticks flush immediately so
								// starved bolts still close windows on time).
								tick := []transport.Msg{{Src: -1, Window: cw}}
								for w := range in[s] {
									if err := in[s][w].SendSlab(tick); err != nil {
										fail(err)
										break
									}
									if err := in[s][w].Sender.Flush(); err != nil {
										fail(err)
										break
									}
								}
								break
							}
						}
					}
				} else {
					core.RouteBatch(p, keys[:n], dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
				}
				now := time.Now().UnixNano()
				// stall is the time spent publishing the slab: backed off
				// on a full granting link, or inside SendSlab (over TCP the
				// frame encode plus any wait for a free coalescing
				// buffer). Clocked only with telemetry on.
				var stall time.Duration
				for i := 0; i < n; i++ {
					// With aggregation on, a message carries its window id, the
					// digest routing computed, and the merger sample (see
					// Config.AggValue for the contract).
					m := transport.Msg{Key: keys[i], Src: int32(s)}
					if agg {
						m.Window = (base + int64(i)) / cfg.AggWindow
						m.Dig = uint64(digs[i])
						m.Weight = 1
						if cfg.AggValue != nil {
							m.Weight = cfg.AggValue(keys[i], base+int64(i))
						} else if vals != nil {
							m.Weight = vals[i]
						}
					}
					if seq&latSampleMask == 0 {
						m.Emit = now
					}
					seq++
					w := dsts[i]
					g := granters[w]
					if g == nil {
						pend[w] = append(pend[w], m)
						continue
					}
					if used[w] == len(open[w]) {
						// Current grant exhausted: commit it and reserve the
						// next stretch of ring space, spinning while the
						// link is full (same backpressure as SendSlab).
						if used[w] > 0 {
							g.Publish(used[w])
							used[w] = 0
						}
						gspins := 0
						for {
							if open[w] = g.Grant(n - i); open[w] != nil {
								break
							}
							if failed() {
								break
							}
							if pt != nil {
								t0 := time.Now()
								backoff(&gspins)
								stall += time.Since(t0)
							} else {
								backoff(&gspins)
							}
						}
						if open[w] == nil {
							break
						}
					}
					open[w][used[w]] = m
					used[w]++
				}
				for w := range pend {
					if used[w] > 0 {
						granters[w].Publish(used[w])
						open[w], used[w] = nil, 0
					}
					if len(pend[w]) > 0 {
						var t0 time.Time
						if pt != nil {
							t0 = time.Now()
						}
						if err := in[s][w].SendSlab(pend[w]); err != nil {
							fail(err)
						}
						if pt != nil {
							stall += time.Since(t0)
						}
						pend[w] = pend[w][:0]
					}
				}
				pt.addPublishStall(s, stall)
			}
		}(s)
	}

	spouts.Wait()
	executors.Wait()
	elapsed := time.Since(start)
	total := elapsed
	if agg {
		reduceWG.Wait()
		total = time.Since(start)
	}
	if tcp != nil {
		fail(tcp.Err())
	}
	if chaos != nil && cfg.OnFaultStats != nil {
		cfg.OnFaultStats(chaos.Stats())
	}
	if p := firstErr.Load(); p != nil {
		return Result{}, *p
	}

	res := Result{
		Algorithm: cfg.Algorithm,
		Elapsed:   elapsed,
		Loads:     make([]int64, cfg.Workers),
	}
	if agg {
		res.Agg = sd.Stats()
		res.AggTotal = sd.Total()
		res.AggReplication = sd.Replication()
		for _, b := range bolts {
			res.AggBoltPartials += b.acc.Flushed()
		}
		if total > 0 {
			for _, busy := range reduceBusy {
				u := float64(busy) / float64(total)
				res.AggReducerUtilMean += u / float64(shards)
				if u > res.AggReducerUtil {
					res.AggReducerUtil = u
				}
			}
		}
	}
	for w := range stats {
		st := &stats[w]
		res.Loads[w] = st.count
		res.Completed += st.count
		if n := bolts[w].latSampled; n > 0 {
			if avg := st.sum / time.Duration(n); avg > res.MaxAvgLatency {
				res.MaxAvgLatency = avg
			}
		}
	}
	pooled := poolLatency(stats)
	res.P50 = time.Duration(pooled.Quantile(0.50))
	res.P95 = time.Duration(pooled.Quantile(0.95))
	res.P99 = time.Duration(pooled.Quantile(0.99))
	res.Imbalance = metrics.Imbalance(res.Loads)
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Completed) / sec
	}
	gen.Reset()
	return res, nil
}

// executorCount is how many executor goroutines host cfg's bolts: one
// per processor, or one per bolt under a simulated service time (see
// the file header).
func executorCount(cfg Config) int {
	if cfg.ServiceTime > 0 {
		return cfg.Workers
	}
	return min(cfg.Workers, runtime.GOMAXPROCS(0))
}

// runExecutor runs one executor goroutine: it sweeps its hosted bolts
// round-robin, polling each once per sweep, until every one is done.
// It backs off only after a sweep in which none of them made progress,
// and charges that idle time to every bolt still live on it as input
// starvation (acquire_stall_ns_total).
func runExecutor(hosted []*bolt, pt *planeTelemetry) {
	spins := 0
	for len(hosted) > 0 {
		progressed := false
		live := hosted[:0]
		for _, b := range hosted {
			p, done := b.poll()
			if p {
				progressed = true
			}
			if !done {
				live = append(live, b)
			}
		}
		hosted = live
		if progressed {
			spins = 0
			continue
		}
		if pt == nil {
			backoff(&spins)
			continue
		}
		t0 := time.Now()
		backoff(&spins)
		idle := time.Since(t0)
		for _, b := range hosted {
			pt.addAcquireStall(b.w, idle)
		}
	}
}

// bolt is one transport-plane bolt, run as a task on an executor: its
// input links (one per source), its partial links (one per shard), and
// the state its sweeps carry from one poll to the next.
type bolt struct {
	w        int
	in       []*transport.Link // per source
	out      []*transport.Link // per shard; nil without aggregation
	inflight []inflightCounter // per source ack counters (shared)
	pt       *planeTelemetry
	fail     func(error)
	failed   func() bool
	svc      time.Duration // simulated per-message service time
	spin     bool

	st         *boltStats
	latSampled int64
	acc        *aggregation.Accumulator // nil without aggregation
	scratch    []aggregation.Partial
	pendP      [][]transport.Msg // per shard staging
	buf        []transport.Msg   // receive buffer
	drained    []bool            // per source: input link closed and empty
	remaining  int               // sources not yet drained
}

// poll sweeps the bolt's input links once without blocking. progressed
// reports whether any link yielded messages or drained. Once every link
// has drained the bolt flushes its last partials, closes its partial
// links and reports done.
func (b *bolt) poll() (progressed, done bool) {
	for s, l := range b.in {
		if b.drained[s] {
			continue
		}
		n, fin := l.RecvSlab(b.buf)
		if n == 0 {
			if fin {
				b.drained[s] = true
				b.remaining--
				progressed = true
			}
			continue
		}
		progressed = true
		acks := 0
		for i := 0; i < n; i++ {
			m := &b.buf[i]
			if m.Src < 0 {
				// Watermark tick: the global emission sequence entered
				// window m.Window, so (with one window of slack, as on the
				// data path below) older windows are complete at this bolt
				// even if it never sees another message. No ack: ticks
				// occupy no in-flight window slots.
				if b.acc != nil {
					b.flushClosed(m.Window - 1)
				}
				continue
			}
			simulateWork(b.svc, b.spin)
			if b.acc != nil {
				if wm, ok := b.acc.Watermark(); ok && m.Window > wm {
					// Watermark advance: flush with one window of slack, so
					// slabs from lagging spouts (bounded reordering: at most
					// one drawn-but-unsent slab per spout) do not fragment a
					// window already flushed.
					b.flushClosed(m.Window - 1)
				}
				b.acc.AddSample(m.Window, core.KeyDigest(m.Dig), m.Key, 1, m.Weight)
			}
			if m.Emit != 0 {
				lat := time.Duration(time.Now().UnixNano() - m.Emit)
				b.st.lat.Add(float64(lat))
				b.st.sum += lat
				b.latSampled++
			}
			b.st.count++
			acks++
		}
		if acks > 0 {
			b.inflight[s].n.Add(int64(-acks))
			b.pt.addBoltMsgs(b.w, acks)
		}
	}
	if b.remaining > 0 {
		return progressed, false
	}
	if b.acc != nil {
		b.flushClosed(1 << 62)
		for _, l := range b.out {
			l.Sender.Close()
		}
	}
	return progressed, true
}

// flushClosed closes windows below `before` and sends each partial to
// its shard with its worker identity intact: the replica is observed,
// and the partial merged, at the shard. Each touched link is flushed so
// window finals never sit in a coalescing buffer.
func (b *bolt) flushClosed(before int64) {
	b.scratch = b.acc.FlushBefore(before, b.scratch[:0])
	b.pt.addBoltPartials(len(b.scratch))
	for i := range b.scratch {
		p := &b.scratch[i]
		r := aggregation.ShardFor(p.Digest, len(b.out))
		b.pendP[r] = append(b.pendP[r], partialMsg(p))
	}
	for r, pend := range b.pendP {
		if len(pend) == 0 {
			continue
		}
		if !b.failed() {
			if err := b.out[r].SendSlab(pend); err != nil {
				b.fail(err)
			} else if err := b.out[r].Sender.Flush(); err != nil {
				b.fail(err)
			}
		}
		b.pendP[r] = pend[:0]
	}
}

// combineRoot is shard r's reduce goroutine: the combiner root over
// legs, where legs[w] is bolt w's link into the shard. Each received
// slab's partials are rebuilt with the worker id they carried on the
// wire, their replica triples recorded (one lock per slab), and folded
// into the shard's combiner. After every productive sweep the root
// hands the shard's driver each window the moment it is provably
// complete, so the driver merges exactly one combined partial per
// (window, key); at end of stream it flushes the remainder and closes
// the shard.
//
// The simulated per-partial merge cost (Config.AggMergeCost) is charged
// per combined partial the driver merges — the shard hop's actual
// traffic — as a DEBT settled in ≥ 1 ms chunks, each settlement's
// measured oversleep credited back: per-slab sleeps would bottom out at
// the timer floor and charge every shard the slab COUNT (which sharding
// does not reduce — each bolt flush sends one slab per shard) instead
// of the partial count (which it does). Returns the busy time
// (receiving, folding, flushing, merging) for the utilization report.
func combineRoot(cfg Config, sd *aggregation.ShardedDriver, r int, legs []*transport.Link, onFinal func(aggregation.Final), pt *planeTelemetry) time.Duration {
	comb := aggregation.NewCombiner(sd, r)
	buf := make([]transport.Msg, 256)
	slab := make([]aggregation.Partial, 0, len(buf))
	drained := make([]bool, len(legs))
	remaining := len(legs)
	var busy, debt time.Duration
	var charged int64   // combined partials already charged to the debt
	var published int64 // combined partials already published to telemetry
	settle := func(threshold time.Duration) {
		if cfg.AggMergeCost > 0 {
			if d := comb.Out() - charged; d > 0 {
				debt += cfg.AggMergeCost * time.Duration(d)
				charged = comb.Out()
			}
		}
		if debt > threshold {
			s0 := time.Now()
			simulateWork(debt, cfg.Spin)
			debt -= time.Since(s0)
		}
	}
	// account books one busy stretch. The published partial count
	// follows what the DRIVER merged (comb.Out()), so
	// reduce_partials_total/bolt_partials_total is the combiner's
	// end-to-end pre-merge ratio.
	account := func(t0 time.Time) {
		d := time.Since(t0)
		busy += d
		pt.addReduce(r, int(comb.Out()-published), d)
		published = comb.Out()
	}
	spins := 0
	for remaining > 0 {
		t0 := time.Now()
		progressed := false
		for w, l := range legs {
			if drained[w] {
				continue
			}
			n, done := l.RecvSlab(buf)
			if n == 0 {
				if done {
					drained[w] = true
					remaining--
					progressed = true
				}
				continue
			}
			progressed = true
			slab = slab[:0]
			for i := range buf[:n] {
				m := &buf[i]
				slab = append(slab, aggregation.Partial{
					Window: m.Window,
					Digest: aggregation.KeyDigest(m.Dig),
					Key:    m.Key,
					Count:  m.Weight,
					Val:    aggregation.Value{m.Val0, m.Val1},
					Worker: m.Src,
				})
			}
			sd.ObserveReplicas(r, slab)
			for i := range slab {
				comb.Fold(&slab[i])
			}
		}
		if !progressed {
			backoff(&spins)
			continue
		}
		spins = 0
		comb.FlushComplete(onFinal)
		settle(time.Millisecond)
		account(t0)
	}
	t0 := time.Now()
	comb.Finish(onFinal)
	settle(0)
	account(t0)
	return busy
}

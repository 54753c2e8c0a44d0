package dspe

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/ring"
	"slb/internal/stream"
)

// Pipeline is a linear multi-stage topology: a spout stage reading a
// key stream, followed by one or more bolt stages connected by grouped
// streams. Each edge has its own grouping scheme (any of core.Names),
// and — exactly as in the paper's model — each upstream executor owns a
// private partitioner instance with sender-local load estimates for
// every edge it sends on.
//
// Every edge is one lock-free SPSC ring per (sender, receiver) executor
// pair. Spouts are goroutines; stage executors are tasks, hosted and
// swept round-robin by min(executors, GOMAXPROCS) goroutines the way
// Run hosts its bolts (one goroutine per executor when a stage has a
// service time). A task stages its emissions in an outbox and takes no
// new input while a full ring leaves the outbox non-empty: backpressure
// holds without blocking a goroutine that may also host the consumer.
// An executor closes its output rings once its inputs are drained and
// its outbox is empty, so a finite stream always drains completely.
// This generalizes Run's fixed source→worker DAG to the DAGs real DSPE
// applications use (e.g. tokenize → count).
//
// Four stage kinds compose the paper's two-phase applications:
// AddStage (plain per-tuple functions), AddWindowedAggregate (per-key
// partial counts per tumbling window, flushed downstream as weighted
// partial tuples — the aggregation phase key splitting makes
// necessary), AddWindowedMerge (the same with a pluggable merge
// operator over tuple weights: sum, min/max, approximate-distinct) and
// AddWeightedStage (functions that see tuple weights and windows —
// the reduce phase merging partials, typically grouped "KG").
//
// Invalid builder arguments do not panic: the first one is recorded
// and returned by Run.
type Pipeline struct {
	gen    stream.Generator
	spouts int
	stages []stageSpec
	err    error // first invalid builder argument; Run returns it
}

// StageFunc processes one tuple and may emit any number of keyed tuples
// downstream via emit (a leaf stage's emissions are discarded).
// Each executor calls it from one goroutine at a time, but executors
// share goroutines: it must not block waiting on another executor of
// the same pipeline. Emissions inherit the incoming tuple's weight and
// window unchanged (pass-through), so a plain stage between a
// windowed-aggregate stage and its reducer relabels partials without
// corrupting their counts; a stage that fans one tuple out into
// several therefore multiplies total weight — use AddWeightedStage when
// emissions must repartition the count.
type StageFunc func(key string, emit func(key string))

// WeightedStageFunc is the stage form that sees tuple weights: count is
// the number of source tuples the incoming tuple stands for (1 for raw
// tuples, a partial count for tuples emitted by a windowed-aggregate
// stage) and window is the tumbling-window id it belongs to (0 for raw
// tuples). Emissions carry their own counts. This is the natural shape
// of a reduce stage merging partials. Like a StageFunc, it must not
// block waiting on another executor of the same pipeline.
type WeightedStageFunc func(key string, window int64, count int64, emit func(key string, count int64))

type stageSpec struct {
	name        string
	parallelism int
	grouping    string // algorithm for the edge INTO this stage
	fn          StageFunc
	wfn         WeightedStageFunc
	aggWindow   int64              // > 0: windowed-aggregate stage
	merger      aggregation.Merger // non-nil: merge operator over tuple weights
	service     time.Duration
}

// NewPipeline starts a pipeline definition from a spout stage with the
// given parallelism reading gen.
func NewPipeline(gen stream.Generator, spouts int) *Pipeline {
	p := &Pipeline{gen: gen, spouts: spouts}
	if spouts <= 0 {
		p.err = errors.New("dspe: pipeline needs at least one spout")
	}
	return p
}

// add appends spec, or records an error for Run: a non-positive
// parallelism, or the builder's own check failed (invalid, explained by
// why). Only a pipeline's first error is kept.
func (p *Pipeline) add(spec stageSpec, invalid bool, why string) *Pipeline {
	if !invalid && spec.parallelism <= 0 {
		invalid, why = true, fmt.Sprintf("parallelism %d must be positive", spec.parallelism)
	}
	if !invalid {
		p.stages = append(p.stages, spec)
	} else if p.err == nil {
		p.err = fmt.Errorf("dspe: stage %q: %s", spec.name, why)
	}
	return p
}

// AddStage appends a bolt stage. grouping names the partitioning scheme
// of the edge into this stage (one of core.Names); service is an
// optional simulated per-tuple processing cost.
func (p *Pipeline) AddStage(name string, parallelism int, grouping string, service time.Duration, fn StageFunc) *Pipeline {
	spec := stageSpec{name: name, parallelism: parallelism, grouping: grouping, fn: fn, service: service}
	return p.add(spec, fn == nil, "stage function required")
}

// AddWeightedStage appends a bolt stage whose function sees tuple
// weights and windows — the reduce half of a two-phase aggregation.
// Group it "KG" to guarantee all partials of a key meet at one executor.
func (p *Pipeline) AddWeightedStage(name string, parallelism int, grouping string, service time.Duration, fn WeightedStageFunc) *Pipeline {
	spec := stageSpec{name: name, parallelism: parallelism, grouping: grouping, wfn: fn, service: service}
	return p.add(spec, fn == nil, "stage function required")
}

// AddWindowedAggregate appends a windowed-aggregate stage: executors
// keep per-key partial counts per tumbling window of `window` source
// tuples (window ids derive from the spout's global emission sequence)
// and, when a window closes, emit ONE weighted tuple per distinct
// (window, key) partial downstream — the aggregation traffic whose
// volume is the replication factor the upstream grouping paid. A
// following AddWeightedStage with "KG" grouping merges the partials
// into finals; as a leaf stage the partials are still counted (for
// StageResult.AggPartials) but discarded.
func (p *Pipeline) AddWindowedAggregate(name string, parallelism int, grouping string, window int64) *Pipeline {
	spec := stageSpec{name: name, parallelism: parallelism, grouping: grouping, aggWindow: window}
	return p.add(spec, window <= 0, fmt.Sprintf("aggregate window %d must be positive", window))
}

// AddWindowedMerge is AddWindowedAggregate with a pluggable merge
// operator: executors fold each incoming tuple's WEIGHT through the
// merger per (window, key) — the addend for aggregation.SumMerger, the
// comparand for Min/Max — and, when a window closes, emit one weighted
// tuple per (window, key) partial whose weight is the merger's RESULT
// for that partial.
//
// The stage boundary carries that scalar result, not the merger's
// internal state, so a downstream AddWeightedStage (typically grouped
// "KG") can reassemble a key's split partials only for operators whose
// results stay combinable as plain numbers: sum the sums (Count/Sum),
// min the mins / max the maxes. DistinctMerger does NOT qualify — an
// HLL estimate of each fragment cannot be combined into an estimate of
// the union — so use it here only when this stage's grouping keeps
// each key on one executor (e.g. "KG"); when a splitting grouping must
// feed a distinct count, use the engines' AggMerger path instead,
// whose flushed partials transport the full combinable state.
//
// AddWindowedMerge(…, aggregation.SumMerger) over weight-1 tuples
// behaves identically to AddWindowedAggregate (a count IS a sum of
// ones).
func (p *Pipeline) AddWindowedMerge(name string, parallelism int, grouping string, window int64, m aggregation.Merger) *Pipeline {
	spec := stageSpec{name: name, parallelism: parallelism, grouping: grouping, aggWindow: window, merger: m}
	return p.add(spec, window <= 0 || m == nil, fmt.Sprintf("needs a merge operator and a positive window (got %d)", window))
}

// StageResult reports one stage's outcome.
type StageResult struct {
	Name string
	// Loads is the per-executor processed-tuple count.
	Loads []int64
	// Imbalance is I(m) over this stage's executors.
	Imbalance float64
	// Processed is the total tuples handled by the stage.
	Processed int64
	// AggPartials and AggWindows are the partial tuples emitted and the
	// window flushes performed by a windowed-aggregate stage (zero for
	// other stage kinds).
	AggPartials int64
	AggWindows  int64
}

// PipelineResult aggregates a pipeline run.
type PipelineResult struct {
	// Emitted is the number of tuples the spout stage produced.
	Emitted int64
	// Stages reports each bolt stage in order.
	Stages []StageResult
	// Elapsed is the wall-clock makespan.
	Elapsed time.Duration
	// P50, P95, P99 are end-to-end latency percentiles measured at the
	// final stage (from spout emission to leaf completion), estimated
	// from one tuple in latSampleMask+1.
	P50, P95, P99 time.Duration
}

// PipelineConfig carries the engine-level knobs for a pipeline run.
type PipelineConfig struct {
	// Core carries seed/θ/ε shared by all edges (Workers and Instance
	// are filled per edge/executor).
	Core core.Config
	// Messages caps the spout's emissions; 0 means the full generator.
	Messages int64
}

// An executor's rings on one edge hold about pipeEdgeTuples tuples in
// all: an edge from U senders into P executors gets rings of
// pipeEdgeTuples/max(U, P) slots, and never fewer than pipeMinRing. A
// wide edge (hundreds of executors, a few tuples per ring per wake)
// thus neither allocates nor cycles through megabytes of cold slots,
// while a narrow one keeps deep rings. On BenchmarkPipelineShapes
// (2-core host), a flat 128 slots left agg256 ≈15% slower and a flat
// 16 cost chain and trending 30–35%.
const (
	pipeEdgeTuples = 1024
	pipeMinRing    = 16
)

func pipeRingCap(senders, receivers int) int {
	return max(pipeMinRing, pipeEdgeTuples/max(senders, receivers))
}

// pipeSlab is the most tuples a task takes from one input ring per
// poll, and the spouts' key-slab size.
const pipeSlab = 64

// pipeTuple carries the key and its KeyDigest (computed once, when the
// spout routes the first edge, and re-derived downstream only when a
// stage emits a DIFFERENT key), plus the root emission time for
// latency (ns since the run's epoch), the root emission sequence number
// (windowed-aggregate stages derive window ids from it), the window id,
// and the tuple's weight (how many source tuples it stands for —
// partials carry their count).
type pipeTuple struct {
	key    string
	dig    core.KeyDigest
	root   int64
	seq    int64
	window int64
	weight int64
}

// Run executes the pipeline to completion.
func (p *Pipeline) Run(cfg PipelineConfig) (PipelineResult, error) {
	if p.err != nil {
		return PipelineResult{}, p.err
	}
	if len(p.stages) == 0 {
		return PipelineResult{}, fmt.Errorf("dspe: pipeline has no stages")
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
		capacity := pipeRingCap(senders, spec.parallelism)
		edges[s] = make([][]*ring.SPSC[pipeTuple], senders)
		for k := range edges[s] {
			edges[s][k] = make([]*ring.SPSC[pipeTuple], spec.parallelism)
			for i := range edges[s][k] {
				edges[s][k][i] = ring.New[pipeTuple](capacity)
			}
		}
	}

	// senderFor builds one partitioner per (sender executor, edge).
	senderFor := func(stage int, instance int) (core.Partitioner, error) {
		spec := p.stages[stage]
		c := cfg.Core
		c.Workers = spec.parallelism
		c.Instance = instance
		return core.New(spec.grouping, c)
	}

	// Every partitioner is built before any goroutine starts, so an
	// unknown grouping fails the run cleanly.
	epoch := time.Now()
	stats := make([][]boltStats, len(p.stages))
	tasks := make([][]*stageTask, len(p.stages))
	service := false
	for s := range p.stages {
		spec := &p.stages[s]
		service = service || spec.service > 0
		leaf := s == len(p.stages)-1
		stats[s] = make([]boltStats, spec.parallelism)
		tasks[s] = make([]*stageTask, spec.parallelism)
		for ex := range tasks[s] {
			t := &stageTask{
				spec:      spec,
				in:        make([]*ring.SPSC[pipeTuple], len(edges[s])),
				drained:   make([]bool, len(edges[s])),
				remaining: len(edges[s]),
				st:        &stats[s][ex],
				epoch:     epoch,
			}
			for k := range edges[s] {
				t.in[k] = edges[s][k][ex]
			}
			if leaf {
				t.st.lat = metrics.NewQuantiles(1 << 14)
			} else {
				// This executor is sender ex on edge s+1.
				var err error
				if t.down, err = senderFor(s+1, ex+spec.parallelism); err != nil {
					return PipelineResult{}, err
				}
				t.downDig, _ = t.down.(core.DigestRouter)
				t.out = newOutbox(edges[s+1][ex])
			}
			if spec.aggWindow > 0 {
				t.acc = aggregation.NewAccumulatorMerger(ex, spec.merger)
			}
			t.emit = func(key string) { t.send(key, t.cur.weight) }
			t.emitW = t.send
			tasks[s][ex] = t
		}
	}
	parts := make([]core.Partitioner, p.spouts)
	for sp := range parts {
		var err error
		if parts[sp], err = senderFor(0, sp); err != nil {
			return PipelineResult{}, err
		}
	}

	// Stage order within each executor's list: a sweep polls upstream
	// tasks before the downstream tasks they feed.
	all := slices.Concat(tasks...)
	execs := executorCount(len(all), service)
	var executors sync.WaitGroup
	for e := 0; e < execs; e++ {
		var hosted []*stageTask
		for i := e; i < len(all); i += execs {
			hosted = append(hosted, all[i])
		}
		executors.Add(1)
		go func() {
			defer executors.Done()
			runExecutor(hosted, nil)
		}()
	}

	p.gen.Reset()
	limit := p.gen.Len()
	if cfg.Messages > 0 && cfg.Messages < limit {
		limit = cfg.Messages
	}
	nextSlab, drawn := slabSource(p.gen, limit)

	start := time.Now()
	var spouts sync.WaitGroup
	for sp, part := range parts {
		spouts.Add(1)
		go func() {
			defer spouts.Done()
			out := newOutbox(edges[0][sp])
			keys := make([]string, pipeSlab)
			digs := make([]core.KeyDigest, pipeSlab)
			dsts := make([]int, pipeSlab)
			for {
				n, base := nextSlab(keys, nil)
				if n == 0 {
					break
				}
				// Hash-once: the digests routing computes here travel with
				// the tuples through every later stage.
				core.RouteBatchDigests(part, keys[:n], digs, dsts)
				root := int64(time.Since(epoch))
				for i := 0; i < n; i++ {
					out.add(dsts[i], pipeTuple{key: keys[i], dig: digs[i], root: root, seq: base + int64(i), weight: 1})
				}
				// A spout hosts no consumer, so it may back off until
				// the whole slab is published.
				for spins := 0; !out.empty(); {
					if out.publish() {
						spins = 0
					} else {
						backoff(&spins)
					}
				}
			}
			out.close()
		}()
	}

	spouts.Wait()
	executors.Wait()
	elapsed := time.Since(start)

	lat := poolLatency(stats[len(p.stages)-1])
	res := PipelineResult{
		Emitted: drawn(),
		Elapsed: elapsed,
		P50:     time.Duration(lat.Quantile(0.50)),
		P95:     time.Duration(lat.Quantile(0.95)),
		P99:     time.Duration(lat.Quantile(0.99)),
	}
	for s, spec := range p.stages {
		sr := StageResult{Name: spec.name, Loads: make([]int64, spec.parallelism)}
		for ex, t := range tasks[s] {
			sr.Loads[ex] = t.st.count
			sr.Processed += t.st.count
			if t.acc != nil {
				sr.AggPartials += t.acc.Flushed()
				sr.AggWindows += t.acc.Closed()
			}
		}
		sr.Imbalance = metrics.Imbalance(sr.Loads)
		res.Stages = append(res.Stages, sr)
	}
	p.gen.Reset()
	return res, nil
}

// outbox stages one sender's tuples per destination ring and publishes
// them in slabs with Grant/Publish; whatever a full ring refuses stays
// staged for the next publish.
type outbox struct {
	rings []*ring.SPSC[pipeTuple]
	pend  [][]pipeTuple // per destination
	dirty []int         // destinations with staged tuples
}

func newOutbox(rings []*ring.SPSC[pipeTuple]) *outbox {
	return &outbox{rings: rings, pend: make([][]pipeTuple, len(rings))}
}

func (o *outbox) add(w int, tp pipeTuple) {
	if len(o.pend[w]) == 0 {
		o.dirty = append(o.dirty, w)
	}
	o.pend[w] = append(o.pend[w], tp)
}

func (o *outbox) empty() bool { return len(o.dirty) == 0 }

// publish moves as many staged tuples into their rings as fit, without
// blocking, and reports whether any moved.
func (o *outbox) publish() (moved bool) {
	live := o.dirty[:0]
	for _, w := range o.dirty {
		q, p := o.rings[w], o.pend[w]
		for len(p) > 0 {
			g := q.Grant(len(p))
			if g == nil {
				break
			}
			n := copy(g, p)
			q.Publish(n)
			p = p[n:]
			moved = true
		}
		o.pend[w] = append(o.pend[w][:0], p...)
		if len(p) > 0 {
			live = append(live, w)
		}
	}
	o.dirty = live
	return moved
}

func (o *outbox) close() {
	for _, q := range o.rings {
		q.Close()
	}
}

// stageTask is one stage executor run as a task on an executor
// goroutine: its input rings (one per upstream sender), its outbox into
// the next stage (nil at the leaf, whose emissions are discarded), and
// the state its polls carry.
type stageTask struct {
	spec      *stageSpec
	in        []*ring.SPSC[pipeTuple]
	drained   []bool // per input: closed and empty
	remaining int    // inputs not yet drained
	out       *outbox
	down      core.Partitioner
	downDig   core.DigestRouter
	acc       *aggregation.Accumulator // windowed stages only
	scratch   []aggregation.Partial
	finished  bool      // final window flush staged
	cur       pipeTuple // the tuple being processed; emissions inherit its root, seq and window
	emit      func(key string)
	emitW     func(key string, weight int64)
	st        *boltStats
	epoch     time.Time // origin of pipeTuple.root
}

// poll advances the task without blocking. It first publishes any
// staged emissions and takes no new input while some stay staged; it
// then sweeps its input rings one slab each. Once every input has
// drained it flushes its last windows and, with the outbox empty,
// closes its output rings and reports done.
func (t *stageTask) poll() (progressed, done bool) {
	if t.blocked(&progressed) {
		return progressed, false
	}
	for k, q := range t.in {
		if t.drained[k] {
			continue
		}
		a := q.Acquire(pipeSlab)
		if a == nil {
			if q.Drained() {
				t.drained[k] = true
				t.remaining--
				progressed = true
			}
			continue
		}
		for i := range a {
			t.process(&a[i])
		}
		q.Release(len(a))
		progressed = true
		if t.blocked(&progressed) {
			return progressed, false
		}
	}
	if t.remaining > 0 {
		return progressed, false
	}
	if t.acc != nil && !t.finished {
		t.finished = true
		t.flushWindows(1<<62, t.cur.root)
		progressed = true
		if t.blocked(&progressed) {
			return progressed, false
		}
	}
	if t.out != nil {
		t.out.close()
	}
	return true, true
}

// blocked publishes the outbox and reports whether tuples remain
// staged; a publish that moved any sets *progressed.
func (t *stageTask) blocked(progressed *bool) bool {
	if t.out == nil || t.out.empty() {
		return false
	}
	if t.out.publish() {
		*progressed = true
	}
	return !t.out.empty()
}

func (t *stageTask) process(tp *pipeTuple) {
	spec := t.spec
	if spec.service > 0 {
		time.Sleep(spec.service)
	}
	t.cur = *tp
	switch {
	case t.acc != nil:
		w := tp.seq / spec.aggWindow
		if wm, ok := t.acc.Watermark(); ok && w > wm {
			// One window of slack, as in Run: upstream executors
			// interleave, so the previous window may still have tuples
			// in flight.
			t.flushWindows(w-1, tp.root)
		}
		if spec.merger != nil {
			// Merge stage: the tuple's weight is the SAMPLE the operator
			// folds (one observation per tuple).
			t.acc.AddSample(w, tp.dig, tp.key, 1, tp.weight)
		} else {
			// Default aggregate stage: the weight folds into the count
			// (a count-5000 partial stands for 5000 tuples).
			t.acc.AddN(w, tp.dig, tp.key, tp.weight)
		}
	case spec.wfn != nil:
		spec.wfn(tp.key, tp.window, tp.weight, t.emitW)
	default:
		// Pass-through weight: a plain stage re-emitting a partial tuple
		// (e.g. a router between an aggregate stage and its reducer)
		// must not collapse a count-5000 partial to 1.
		spec.fn(tp.key, t.emit)
	}
	if t.out == nil && t.st.count&latSampleMask == 0 {
		t.st.lat.Add(float64(time.Since(t.epoch) - time.Duration(tp.root)))
	}
	t.st.count++
}

// send stages one emission of the current tuple. Its digest is the
// carried one when the key bytes are unchanged (the common pass-through
// case reduces to a pointer compare), one fresh scan when the stage
// emitted a genuinely new key.
func (t *stageTask) send(key string, weight int64) {
	if t.out == nil {
		return // leaf: emissions discarded
	}
	dig := t.cur.dig
	if key != t.cur.key {
		dig = core.Digest(key)
	}
	t.stage(pipeTuple{key: key, dig: dig, root: t.cur.root, seq: t.cur.seq, window: t.cur.window, weight: weight})
}

// stage routes tp by its carried digest into the outbox.
func (t *stageTask) stage(tp pipeTuple) {
	var w int
	if t.downDig != nil {
		w = t.downDig.RouteDigest(tp.dig, tp.key)
	} else {
		w = t.down.Route(tp.key)
	}
	t.out.add(w, tp)
}

// flushWindows closes windows below before and stages one weighted
// tuple per partial; root is the emission time of the tuple that
// advanced the watermark (or of the last tuple, at end of input).
func (t *stageTask) flushWindows(before, root int64) {
	t.scratch = t.acc.FlushBefore(before, t.scratch[:0])
	if t.out == nil {
		return // leaf aggregate: partials counted, discarded
	}
	spec := t.spec
	for i := range t.scratch {
		pp := &t.scratch[i]
		// The partial's weight is what the stage computed for it: the
		// fold of its tuples' weights through the merger (== the plain
		// count for the default aggregate stage, whose fold is a sum of
		// weights).
		weight := pp.Count
		if spec.merger != nil {
			weight = spec.merger.Result(pp.Val)
		}
		// The partial carries the digest its table was keyed by; the
		// reduce edge routes on it with zero re-scans.
		t.stage(pipeTuple{
			key:    pp.Key,
			dig:    pp.Digest,
			root:   root,
			seq:    pp.Window * spec.aggWindow,
			window: pp.Window,
			weight: weight,
		})
	}
}

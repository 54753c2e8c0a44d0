// Package dspe is a miniature distributed stream processing engine in
// the style of Apache Storm, used for deployment-style (wall-clock)
// measurements of the partitioning algorithms. The topology mirrors the
// paper's cluster experiment: spout goroutines (sources) route a keyed
// stream through a partitioner into bolts (workers), with an ack-based
// per-source in-flight window (max spout pending) and a fixed
// per-message processing cost at the workers. Every data hop — spout→bolt
// tuples and bolt→reducer partials — is one bounded point-to-point
// internal/transport link, selected by Config.Transport: an in-process
// SPSC ring by default, or a loopback TCP connection. A full link blocks
// its sender, which is the engine's backpressure (Storm's bounded
// executor queues).
//
// The data plane is batched end to end: spouts draw key slabs from the
// generator (stream.NextBatch), route them in one RouteBatch call, and
// send one slab per destination bolt, so per-message link and scheduler
// overhead is amortized by Config.Batch. Bolts run as tasks on executor
// goroutines (see transportplane.go).
//
// With Config.AggWindow set the topology becomes the two-phase windowed
// aggregation the paper's overhead analysis is about: bolts keep
// digest-keyed partial aggregates per tumbling window
// (internal/aggregation; the merge operator is pluggable via
// Config.AggMerger — count by default) and flush closed windows as
// batched partial slabs to a reduce stage of Config.AggShards parallel
// reducer goroutines, sharded by key digest (aggregation.ShardFor), so
// a key's partials always meet at one reducer. Each shard drains its
// bolt links through a combiner root, closes its slice of every window
// on per-shard completeness (thresholds counted at the spouts as they
// route) and merges one combined partial per (window, key); finals fan
// back in through OnFinal. Result.Agg reports the measured aggregation
// traffic, merge work and reducer memory; Result.AggReducerUtil the
// busiest shard's merging fraction of the run (AggReducerUtilMean the
// average shard's).
//
// Messages carry the KeyDigest routing computed (RouteBatchDigests), so
// a key's bytes are scanned exactly once per message end to end: the
// bolt-side partial tables and the reducer both operate on the carried
// digest. Spouts additionally broadcast watermark ticks to EVERY bolt
// when the global emission sequence enters a new window, so a bolt that
// happens to receive no traffic still flushes its closed windows —
// window-close latency depends on stream progress, not on which bolts
// the partitioner favors.
//
// Unlike internal/eventsim, results here depend on the host: use this
// engine to demonstrate the system end-to-end, and eventsim for
// reproducible numbers.
package dspe

import (
	"fmt"
	"sync"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// Config describes one topology run.
type Config struct {
	// Workers is the number of bolt instances.
	Workers int
	// Sources is the number of spout instances.
	Sources int
	// Algorithm is the partitioner name (core.Names).
	Algorithm string
	// Core carries seed/θ/ε; Workers is filled in from this config.
	Core core.Config
	// ServiceTime is the simulated per-message processing cost at a bolt
	// (the paper uses 1 ms). Zero means no artificial delay. It also
	// sets the execution model: at zero, bolts run as tasks on
	// min(Workers, GOMAXPROCS) executor goroutines; above zero, every
	// bolt gets its own executor, so one bolt's service time never
	// delays another.
	ServiceTime time.Duration
	// Window is the per-spout in-flight cap (max spout pending): a spout
	// waits for acks before it emits past it. 0 means 100, except that
	// over TCP a window left at 0 starts at 100 and grows adaptively
	// (see the transportplane.go header).
	Window int
	// Batch is the spout emission slab size: keys drawn, routed and sent
	// per iteration. 0 means 64; it is clamped to Window so a spout can
	// always acquire its whole slab's in-flight slots.
	Batch int
	// Messages caps the emitted messages; 0 means the generator length.
	Messages int64
	// Spin selects busy-wait instead of time.Sleep for the service time:
	// more faithful CPU saturation, but burns host CPU. Tests keep it off.
	Spin bool
	// SlowFactor optionally multiplies the service time of individual
	// bolts (failure injection: stragglers). nil means homogeneous.
	SlowFactor map[int]float64
	// AggWindow, when positive, turns the topology into a two-phase
	// windowed aggregation: every bolt keeps per-key partial aggregates
	// per tumbling window of AggWindow tuples (window ids stamped at the
	// spout from the global emission sequence) and flushes closed windows
	// as batched partial slabs to the reduce stage, which merges partials
	// by key digest and emits finals. Zero disables aggregation.
	AggWindow int64
	// AggShards is R, the number of parallel reducer goroutines the
	// reduce stage is sharded into by key digest (aggregation.ShardFor):
	// each shard owns the keys whose digests map to it, drains one link
	// per bolt, and closes its slice of every window on per-shard
	// completeness. 0 means 1 (a single reducer goroutine).
	AggShards int
	// AggMerger selects the merge operator applied per (window, key):
	// aggregation.CountMerger (the default, nil), SumMerger, MinMerger,
	// MaxMerger, DistinctMerger, or any custom Merger.
	AggMerger aggregation.Merger
	// AggValue derives the 64-bit sample the merger observes for each
	// message; seq is the message's global emission index. nil falls
	// back to the generator's recorded payload values when it carries
	// any (stream.ValueBatchGenerator — e.g. a version-2 tracefile
	// replay), and to the constant 1 (so sum ≡ count) otherwise.
	AggValue func(key string, seq int64) int64
	// AggMergeCost, when positive, simulates a per-partial merge cost at
	// the reducer shards (slept or spun per Config.Spin, batched per
	// slab), so wall-clock runs can reproduce the reducer-bound regime
	// the discrete-event engine models with its AggMergeCost — and show
	// sharding move the saturation point. Zero adds no artificial cost.
	AggMergeCost time.Duration
	// OnFinal, when set (and AggWindow > 0), receives every merged final
	// from the reduce stage. Calls are serialized across reducer shards
	// (a mutex when AggShards > 1), so the callback needs no locking of
	// its own.
	OnFinal func(aggregation.Final)
	// Transport selects the backend of every data hop (spout→bolt
	// tuples and bolt→shard partials). TransportMemory, the zero value,
	// gives each edge an in-process SPSC ring behind the transport
	// interface; TransportTCP gives each edge a loopback TCP connection
	// speaking the columnar frame codec with write coalescing. Finals and
	// replication factors are the same on both (and, at Sources=1, equal
	// to eventsim's); only the wall-clock cost differs. With TransportTCP
	// and Telemetry set, per-link wire counters (bytes, frames, flushes,
	// stalls) land in the registry.
	Transport Transport
	// adaptiveWindow records that the caller left Window at its default:
	// a TCP run then grows the per-spout ack window adaptively (doubling
	// on ack stalls up to adaptiveWindowMax) instead of pinning it at
	// 100, which over a kernel socket is ack-latency bound. Explicitly
	// set windows are always honored as-is.
	adaptiveWindow bool
	// Chaos, when non-nil, wraps the transport fabric (memory or TCP)
	// in deterministic fault injection — dropped buffer writes and
	// severed connections per the schedule — while the engine's results
	// stay bit-equal to a fault-free run: the TCP backend recovers
	// through reconnect + retransmit + receive-edge dedup, the memory
	// backend through FIFO-preserving holdback. TCP delivery timers are
	// tightened automatically so recovery is fast relative to the run.
	Chaos *transport.ChaosConfig
	// OnFaultStats, when set together with Chaos, receives the per-link
	// injected-fault ledger after the run drains — the hook the
	// fault-parity tests use to assert a run actually suffered the
	// schedule it survived.
	OnFaultStats func(map[string]transport.ChaosLinkStats)
	// Telemetry, when non-nil, receives the run's live metric series:
	// per-spout routing activity (core.RouteRecorder), ack-window and
	// link publish/acquire stalls, per-bolt queue depths and processed
	// counts, bolt-side partial flushes, and per-shard reducer busy time
	// and occupancy gauges. Series names and labels are listed in
	// internal/dspe/telemetry.go and the slb package doc (§ Telemetry).
	// All hooks are per-slab or snapshot-time; nil adds no work at all.
	Telemetry *telemetry.Registry
}

// Transport names an edge backend; see Config.Transport.
type Transport int

const (
	// TransportMemory runs every data hop over internal/transport's
	// ring-backed in-memory backend. It is the zero value.
	TransportMemory Transport = iota
	// TransportTCP runs every data hop over loopback TCP connections
	// with columnar frames and write coalescing.
	TransportTCP
)

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 || c.Sources <= 0 {
		return c, fmt.Errorf("dspe: Workers and Sources must be positive")
	}
	if c.Window <= 0 {
		c.Window = 100
		c.adaptiveWindow = true
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Batch > c.Window {
		c.Batch = c.Window
	}
	if c.AggShards <= 0 {
		c.AggShards = 1
	}
	c.Core.Workers = c.Workers
	return c, nil
}

// Result reports wall-clock performance of a topology run.
type Result struct {
	Algorithm string
	Completed int64
	// Elapsed runs from the spouts' start until every bolt has drained
	// its input. It stops BEFORE the reduce stage drains: reducer shards
	// may still be merging buffered partials (on memory links, whole
	// windows of them), so a measurement of the reduce stage times the
	// whole Run call instead.
	Elapsed time.Duration
	// Throughput is Completed / Elapsed: the rate at which the bolts
	// processed messages, not the rate at which finals were produced.
	Throughput float64
	// MaxAvgLatency is the maximum per-bolt mean latency.
	MaxAvgLatency time.Duration
	// P50/P95/P99 are end-to-end latency percentiles across all tuples.
	P50, P95, P99 time.Duration
	// Loads is the per-bolt processed-tuple count.
	Loads []int64
	// Imbalance is the paper's I(m) over the run.
	Imbalance float64
	// Agg reports the reducer-side aggregation cost (zero unless
	// Config.AggWindow was set): partial traffic, merge work and memory
	// high-water marks.
	Agg aggregation.ReducerStats
	// AggReplication is the measured state replication factor: distinct
	// (window, key, worker) triples per distinct (window, key) pair,
	// counted exactly (metrics.DigestReplicas). 1 for KG by construction;
	// up to Workers for W-Choices hot keys. 0 when aggregation is off.
	AggReplication float64
	// AggReducerUtil is the fraction of the run's wall clock the BUSIEST
	// reducer shard's goroutine spent merging partial slabs: the reduce
	// stage's bottleneck utilization (0 when aggregation is off). Near 1
	// means that shard — and with it the stage — is the bottleneck;
	// sharding (Config.AggShards) spreads the load and moves it down.
	AggReducerUtil float64
	// AggReducerUtilMean is the mean merging fraction across the reducer
	// shards (equal to AggReducerUtil when AggShards == 1).
	AggReducerUtilMean float64
	// AggTotal is the sum of all final counts; with aggregation enabled
	// it must equal Completed (every processed tuple is counted exactly
	// once — window close is exact, not approximate).
	AggTotal int64
	// AggBoltPartials is the number of partials the bolts flushed: the
	// worker-side aggregation output, one per (window, key, worker)
	// flush. A per-shard combiner root pre-merges them, so the reducers
	// merge one partial per (window, key) (Agg.Partials == Agg.Finals),
	// strictly fewer than AggBoltPartials whenever replication gives the
	// root anything to combine.
	AggBoltPartials int64
}

// boltStats is written only by the executor hosting the bolt.
type boltStats struct {
	lat   *metrics.Quantiles
	count int64
	sum   time.Duration
}

// Run executes the topology until the stream is exhausted and fully
// acked, then reports aggregate metrics.
func Run(gen stream.Generator, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	parts := make([]core.Partitioner, cfg.Sources)
	for i := range parts {
		srcCfg := cfg.Core
		srcCfg.Instance = i
		p, err := core.New(cfg.Algorithm, srcCfg)
		if err != nil {
			return Result{}, err
		}
		parts[i] = p
	}

	gen.Reset()
	limit := gen.Len()
	if cfg.Messages > 0 && cfg.Messages < limit {
		limit = cfg.Messages
	}
	return runTransport(gen, cfg, parts, limit)
}

// poolLatency merges the per-bolt latency reservoirs into one pooled
// estimator with count-proportional weighting (metrics.Quantiles.Merge):
// a bolt that processed 100× the tuples contributes 100× the mass.
// The previous implementation re-sampled each bolt's 0.05–0.95 quantile
// grid with equal weight, which (a) capped the pooled P99 at the largest
// single-bolt p95 — the tail above p95 was simply discarded — and
// (b) gave a bolt that processed 50 tuples the same vote as one that
// processed 50k, so the hot bolt's queueing tail vanished from the
// pooled percentiles exactly when it mattered.
func poolLatency(stats []boltStats) *metrics.Quantiles {
	pooled := metrics.NewQuantiles(1 << 16)
	for w := range stats {
		if stats[w].count > 0 {
			pooled.Merge(stats[w].lat)
		}
	}
	return pooled
}

// slabSource returns a draw function over the shared generator — slab
// draws are serialized with a mutex (one lock per slab, not per
// message), capped at limit total keys, and each draw also returns the
// slab's base position in the global emission sequence, from which the
// spout derives tumbling-window ids — plus an accessor for the total
// drawn so far. A non-nil vals slice (len ≥ len(dst)) is filled in
// lockstep with the keys' payload values (stream.NextBatchValues);
// nil draws keys only. Both Run and Pipeline.Run feed their spouts
// from one of these.
func slabSource(gen stream.Generator, limit int64) (draw func(dst []string, vals []int64) (int, int64), drawn func() int64) {
	var mu sync.Mutex
	var emitted int64
	draw = func(dst []string, vals []int64) (int, int64) {
		mu.Lock()
		defer mu.Unlock()
		if rem := limit - emitted; rem < int64(len(dst)) {
			dst = dst[:rem]
		}
		if len(dst) == 0 {
			return 0, emitted
		}
		base := emitted
		var n int
		if vals != nil {
			n = stream.NextBatchValues(gen, dst, vals)
		} else {
			n = stream.NextBatch(gen, dst)
		}
		emitted += int64(n)
		return n, base
	}
	drawn = func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return emitted
	}
	return draw, drawn
}

// simulateWork burns the configured service time.
func simulateWork(d time.Duration, spin bool) {
	if d <= 0 {
		return
	}
	if !spin {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

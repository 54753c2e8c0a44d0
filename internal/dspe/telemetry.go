package dspe

// telemetry.go bridges one engine run into a telemetry.Registry
// (Config.Telemetry). The hooks follow the registry's hot-path
// discipline: everything per-message stays in goroutine-local state the
// engines already keep; the bridge publishes per-slab deltas (route
// recorders, stall/busy counters) or registers snapshot-time collectors
// (queue-depth and reducer-occupancy gauge funcs). A nil registry means
// a nil *planeTelemetry, and every method on a nil receiver is a no-op,
// so the engines carry one field and never branch on configuration
// beyond `pt != nil` where a time.Now pair would otherwise be paid.
//
// Series registered per run (labels: engine=dspe-mem|dspe-tcp, algo,
// plus spout/worker/shard where noted):
//
//	route_*                      per spout — see core.NewRouteRecorder
//	spout_ack_wait_ns_total      per spout: blocked acquiring in-flight
//	                             window slots (ack backpressure)
//	spout_ack_window             per spout gauge: the current in-flight
//	                             ack window (grows adaptively over TCP
//	                             when Config.Window was left at its
//	                             default)
//	publish_stall_ns_total       per spout: backed off on a full granting
//	                             link plus time inside SendSlab (frame
//	                             encode and buffer waits over TCP)
//	queue_depth                  per worker gauge: messages waiting in the
//	                             bolt's input links (sum of their receive
//	                             rings' Len; over TCP, decoded messages
//	                             not yet polled)
//	bolt_msgs_total              per worker: tuples processed
//	acquire_stall_ns_total       per worker: input starvation, the
//	                             executor's idle-sweep backoff charged to
//	                             every live bolt it hosts, so each series
//	                             stays a share of its bolt's time
//	bolt_partials_total          partials flushed by all bolts
//	reduce_partials_total        per shard: partials the reducer merged —
//	                             one per (window, key) behind the combiner
//	                             root, so reduce_partials/bolt_partials
//	                             is the root's pre-merge ratio
//	reduce_busy_ns_total         per shard: reducer goroutine busy time
//	reduce_open_windows          per shard gauge: open windows
//	reduce_live_entries          per shard gauge: live (window, key) rows
//	reduce_live_replicas         per shard gauge: live replica bitsets
//
// GaugeFuncs are replace-on-reregister in the registry, so repeated
// runs against one registry (the soak harness) always read the current
// run's links and drivers.

import (
	"strconv"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// engineName returns the engine label value for the configured
// transport.
func engineName(t Transport) string {
	if t == TransportTCP {
		return "dspe-tcp"
	}
	return "dspe-mem"
}

type planeTelemetry struct {
	reg  *telemetry.Registry
	base []telemetry.Label // engine, algo

	recs         []*core.RouteRecorder // per spout
	ackWait      []*telemetry.Counter  // per spout
	ackWindow    []*telemetry.Gauge    // per spout
	publishStall []*telemetry.Counter  // per spout
	boltMsgs     []*telemetry.Counter  // per worker
	acquireStall []*telemetry.Counter  // per worker
	boltPartials *telemetry.Counter
	reduceParts  []*telemetry.Counter // per shard
	reduceBusy   []*telemetry.Counter // per shard
}

// newPlaneTelemetry registers the run's counter series and returns the
// bridge; nil when cfg.Telemetry is nil.
func newPlaneTelemetry(cfg Config) *planeTelemetry {
	reg := cfg.Telemetry
	if reg == nil {
		return nil
	}
	pt := &planeTelemetry{
		reg: reg,
		base: []telemetry.Label{
			telemetry.L("engine", engineName(cfg.Transport)),
			telemetry.L("algo", cfg.Algorithm),
		},
	}
	pt.recs = make([]*core.RouteRecorder, cfg.Sources)
	pt.ackWait = make([]*telemetry.Counter, cfg.Sources)
	pt.ackWindow = make([]*telemetry.Gauge, cfg.Sources)
	pt.publishStall = make([]*telemetry.Counter, cfg.Sources)
	for s := range pt.recs {
		ls := pt.with("spout", s)
		pt.recs[s] = core.NewRouteRecorder(reg, ls...)
		pt.ackWait[s] = reg.Counter("spout_ack_wait_ns_total", ls...)
		pt.ackWindow[s] = reg.Gauge("spout_ack_window", ls...)
		pt.publishStall[s] = reg.Counter("publish_stall_ns_total", ls...)
	}
	pt.boltMsgs = make([]*telemetry.Counter, cfg.Workers)
	pt.acquireStall = make([]*telemetry.Counter, cfg.Workers)
	for w := range pt.boltMsgs {
		ls := pt.with("worker", w)
		pt.boltMsgs[w] = reg.Counter("bolt_msgs_total", ls...)
		pt.acquireStall[w] = reg.Counter("acquire_stall_ns_total", ls...)
	}
	if cfg.AggWindow > 0 {
		pt.boltPartials = reg.Counter("bolt_partials_total", pt.base...)
		pt.reduceParts = make([]*telemetry.Counter, cfg.AggShards)
		pt.reduceBusy = make([]*telemetry.Counter, cfg.AggShards)
		for r := range pt.reduceBusy {
			ls := pt.with("shard", r)
			pt.reduceParts[r] = reg.Counter("reduce_partials_total", ls...)
			pt.reduceBusy[r] = reg.Counter("reduce_busy_ns_total", ls...)
		}
	}
	return pt
}

// with returns base + {key: itoa(idx)} as a fresh slice.
func (pt *planeTelemetry) with(key string, idx int) []telemetry.Label {
	ls := make([]telemetry.Label, 0, len(pt.base)+1)
	ls = append(ls, pt.base...)
	return append(ls, telemetry.L(key, strconv.Itoa(idx)))
}

// recordRoute publishes one routed slab for spout s (nil-safe).
func (pt *planeTelemetry) recordRoute(s int, p core.Partitioner, n int, elapsed time.Duration) {
	if pt != nil {
		pt.recs[s].RecordBatch(p, n, elapsed)
	}
}

func (pt *planeTelemetry) addAckWait(s int, d time.Duration) {
	if pt != nil && d > 0 {
		pt.ackWait[s].Add(d.Nanoseconds())
	}
}

// setAckWindow publishes spout s's current (possibly adaptively grown)
// in-flight ack window (nil-safe).
func (pt *planeTelemetry) setAckWindow(s int, win int64) {
	if pt != nil {
		pt.ackWindow[s].SetInt(win)
	}
}

func (pt *planeTelemetry) addPublishStall(s int, d time.Duration) {
	if pt != nil && d > 0 {
		pt.publishStall[s].Add(d.Nanoseconds())
	}
}

func (pt *planeTelemetry) addBoltMsgs(w, n int) {
	if pt != nil && n > 0 {
		pt.boltMsgs[w].Add(int64(n))
	}
}

func (pt *planeTelemetry) addAcquireStall(w int, d time.Duration) {
	if pt != nil && d > 0 {
		pt.acquireStall[w].Add(d.Nanoseconds())
	}
}

func (pt *planeTelemetry) addBoltPartials(n int) {
	if pt != nil && n > 0 {
		pt.boltPartials.Add(int64(n))
	}
}

func (pt *planeTelemetry) addReduce(r, partials int, busy time.Duration) {
	if pt != nil {
		if partials > 0 {
			pt.reduceParts[r].Add(int64(partials))
		}
		if busy > 0 {
			pt.reduceBusy[r].Add(busy.Nanoseconds())
		}
	}
}

// observeQueues registers per-bolt queue-depth gauges over the
// spout→bolt links, in[s][w] being source s's link into bolt w: the
// messages waiting for bolt w, summed over sources.
func (pt *planeTelemetry) observeQueues(in [][]*transport.Link) {
	if pt == nil {
		return
	}
	for w := range in[0] {
		pt.reg.GaugeFunc("queue_depth", func() float64 {
			n := 0
			for s := range in {
				n += in[s][w].Len()
			}
			return float64(n)
		}, pt.with("worker", w)...)
	}
}

// observeReduce registers the per-shard reducer occupancy gauges.
func (pt *planeTelemetry) observeReduce(sd *aggregation.ShardedDriver) {
	if pt == nil || sd == nil {
		return
	}
	for r := 0; r < sd.Shards(); r++ {
		r := r
		ls := pt.with("shard", r)
		pt.reg.GaugeFunc("reduce_open_windows", func() float64 { return float64(sd.LiveWindowsShard(r)) }, ls...)
		pt.reg.GaugeFunc("reduce_live_entries", func() float64 { return float64(sd.LiveEntriesShard(r)) }, ls...)
		pt.reg.GaugeFunc("reduce_live_replicas", func() float64 { return float64(sd.LiveReplicasShard(r)) }, ls...)
	}
}

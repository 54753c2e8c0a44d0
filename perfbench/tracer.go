package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names what a span times: a call into one layer (a leaf), or
// the slab and burst spans that parent them.
type spanKind uint8

const (
	layerGen spanKind = iota
	layerDigest
	layerOffer
	layerRoute
	layerSend
	layerRecv
	layerAdd
	layerFlush
	layerMerge
	spanSlab
	spanBurst
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	layerGen:    "workload.NextBatch",
	layerDigest: "hashing.Digest",
	layerOffer:  "spacesaving.OfferDigest",
	layerRoute:  "core.RouteBatchDigests",
	layerSend:   "transport.SendSlab/Flush",
	layerRecv:   "transport.RecvSlab",
	layerAdd:    "aggregation.AddSample",
	layerFlush:  "aggregation.FlushBefore",
	layerMerge:  "aggregation.ShardedDriver",
	spanSlab:    "slab",
	spanBurst:   "burst",
}

// maxSpans bounds the spans kept in memory; later spans still count
// toward the per-layer totals.
const maxSpans = 1 << 19

type span struct {
	start, end  int64 // ns since the tracer's base
	parent      int32 // index of the parent span, -1 for a root
	burst, slab int32 // ids of the burst and slab the span works on; slab -1 for burst-level work
	items       int32 // messages or partials the call handled
	kind        spanKind
}

// mark is a span's start: the clock and the heap counters.
type mark struct {
	t           int64
	objs, bytes uint64
}

// layerTotal accumulates one span kind's calls.
type layerTotal struct {
	ns, calls, items int64
	objs, bytes      uint64
}

// tracer records spans in memory around the replay's calls. All methods
// are no-ops on a nil tracer, which is how the untraced replay runs.
type tracer struct {
	base    time.Time
	heap    *heapCounter
	spans   []span
	dropped int64
	tot     [nSpanKinds]layerTotal
	burst   int32
	slab    int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), heap: newHeapCounter(), spans: make([]span, 0, 1<<16), slab: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a parent span and returns its index (-1 when not kept).
func (t *tracer) open(kind spanKind, parent, burst, slab int32) int32 {
	if t == nil {
		return -1
	}
	t.burst, t.slab = burst, slab
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: parent, burst: burst, slab: slab, kind: kind})
	return int32(len(t.spans) - 1)
}

// close ends the parent span opened as idx.
func (t *tracer) close(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	sp := &t.spans[idx]
	sp.end = t.now()
	t.tot[sp.kind].ns += sp.end - sp.start
	t.tot[sp.kind].calls++
	if sp.kind == spanSlab {
		t.slab = -1
	}
}

// begin marks the start of a leaf call.
func (t *tracer) begin() mark {
	if t == nil {
		return mark{}
	}
	o, b := t.heap.read()
	return mark{t: t.now(), objs: o, bytes: b}
}

// end records the leaf call begun at m, which handled items messages or
// partials, as a child of parent.
func (t *tracer) end(kind spanKind, m mark, parent int32, items int) {
	if t == nil {
		return
	}
	end := t.now()
	o, b := t.heap.read()
	lt := &t.tot[kind]
	lt.ns += end - m.t
	lt.calls++
	lt.items += int64(items)
	lt.objs += o - m.objs
	lt.bytes += b - m.bytes
	if len(t.spans) == maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{start: m.t, end: end, parent: parent, burst: t.burst, slab: t.slab, items: int32(items), kind: kind})
}

// write stores the spans as JSON lines, then one line of per-kind
// totals, in dir/spans-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type spanJSON struct {
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Burst  int32  `json:"burst"`
		Slab   int32  `json:"slab"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Items  int32  `json:"items"`
	}
	for i, sp := range t.spans {
		if err := enc.Encode(spanJSON{i, sp.parent, sp.burst, sp.slab, spanNames[sp.kind], sp.start, sp.end, sp.items}); err != nil {
			return "", err
		}
	}
	totals := map[string]any{}
	for k, lt := range t.tot {
		totals[spanNames[k]] = map[string]any{"ns": lt.ns, "calls": lt.calls, "items": lt.items, "allocs": lt.objs, "alloc_bytes": lt.bytes}
	}
	if err := enc.Encode(map[string]any{"totals": totals, "spans_dropped": t.dropped}); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

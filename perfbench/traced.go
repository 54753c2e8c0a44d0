package main

import (
	"fmt"
	"os"
	"runtime"
	"unsafe"

	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// replayChecked runs one staged replay and books its windows in t.
func replayChecked(s spec, seed uint64, truth []windowSum, tr *tracer, t *tally) (*replay, replayOut) {
	windows := int64(len(truth))
	t.attempted += windows
	r, err := newReplay(s, seed, s.replayMsgs, truth, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay set-up failed: %v\n", s.name, err)
		t.failed += windows
		return nil, replayOut{}
	}
	out, err := r.run()
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay failed: %v\n", s.name, err)
		t.failed += windows
	case out.msgs != s.replayMsgs || r.sd.Total() != s.replayMsgs:
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay sent %d, finals total %d\n", s.name, out.msgs, r.sd.Total())
		t.failed += windows
	default:
		t.failed += r.chk.failed()
	}
	return r, out
}

// sumSeries adds up every series called name in snap.
func sumSeries(snap telemetry.Snapshot, name string) float64 {
	var v float64
	for _, m := range snap.Metrics {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// traced prints the per-layer ledger. It runs, apart from the timed
// measurement: the staged replay untraced (the single-threaded
// baseline) and traced (spans around every layer call), then one
// untraced dspe.Run and one with Config.Telemetry attached, whose
// throughput difference is the tracing overhead.
func traced(s spec, seed uint64, outDir string, t *tally, r *report, meta map[string]any) {
	truth := groundTruth(s, seed, s.replayMsgs)
	runtime.GC()
	plainReplay, base := replayChecked(s, seed, truth, nil, t)
	runtime.GC()
	tr := newTracer()
	rp, out := replayChecked(s, seed, truth, tr, t)
	if rp == nil || plainReplay == nil {
		return
	}
	if path, err := tr.write(outDir, s.name); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		meta["spans"] = path
	}

	// The engine: one untraced Run, one with telemetry.
	runTruth := groundTruth(s, seed, s.repMsgs)
	src := newSource(s, seed, s.repMsgs)
	chk := newChecker(runTruth)
	heap := newHeapCounter()
	runtime.GC()
	_, b0 := heap.read()
	plain, plainCPU := checkedRun(s, src, chk, nil, t)
	_, b1 := heap.read()
	reg := telemetry.NewRegistry()
	runtime.GC()
	tele, _ := checkedRun(s, src, chk, reg, t)
	snap := reg.Snapshot()
	if plain.Completed == 0 || tele.Completed == 0 || out.msgs == 0 {
		return
	}

	msgs := float64(out.msgs)
	perMsg := func(k spanKind) float64 { return float64(tr.tot[k].ns) / msgs }
	perItem := func(k spanKind) float64 { return float64(tr.tot[k].ns) / float64(max(tr.tot[k].items, 1)) }
	links := float64(sources * s.workers)

	r.add("replay.msgs_per_s", float64(base.msgs)/base.wall.Seconds(), "1/s", "(untraced replay: the single-threaded baseline)")
	r.add("workload.gen_ns_per_msg", perMsg(layerGen), "ns", "")
	r.add("hashing.digest_ns_per_msg", perMsg(layerDigest), "ns", "(standalone; core.route repeats it)")
	r.add("spacesaving.offer_ns_per_msg", perMsg(layerOffer), "ns", "(standalone; core.route repeats it)")
	r.add("core.route_ns_per_msg", perMsg(layerRoute), "ns", "")
	r.add("core.route_allocs_per_msg", float64(tr.tot[layerRoute].objs)/msgs, "count", "")
	var hits, misses int64
	finalD := 0
	for _, p := range rp.parts {
		if st, ok := core.Stats(p); ok {
			hits += st.CandHits
			misses += st.CandMisses
			finalD = max(finalD, st.D)
		}
	}
	if s.algorithm == "W-C" {
		finalD = s.workers // W-Choices offers head keys every worker
	}
	r.add("core.cand_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio",
		fmt.Sprintf("(%d lookups)", hits+misses))
	r.add("core.final_d", float64(finalD), "count", "")

	r.add("transport.send_ns_per_msg", perMsg(layerSend), "ns", "("+s.transportName()+")")
	r.add("transport.recv_ns_per_msg", perMsg(layerRecv), "ns", "("+s.transportName()+")")
	r.add("transport.bg_cpu_ns_per_msg", float64(base.procCPU-base.threadCPU)/float64(base.msgs), "ns",
		"(CPU off the replay thread: TCP writer/reader goroutines and GC)")
	wire := rp.reg.Snapshot()
	bytesPerMsg := float64(unsafe.Sizeof(transport.Msg{})) // a memory link copies one slot
	dictHit := 0.0                                         // the memory backend has no dictionary
	if s.transport == dspe.TransportTCP {
		tx := sumSeries(wire, "transport_tx_msgs_total")
		bytesPerMsg = sumSeries(wire, "transport_tx_bytes_total") / max(tx, 1)
		dictHit = sumSeries(wire, "transport_dict_hits_total") / max(tx, 1)
	}
	r.add("transport.bytes_per_msg", bytesPerMsg, "B", "")
	r.add("transport.dict_hit_ratio", dictHit, "ratio", "")
	r.add("transport.rtt_us", median(plainReplay.rtt)/1e3, "us",
		fmt.Sprintf("(untraced replay, median of %d bursts, Flush to last RecvSlab)", len(plainReplay.rtt)))
	r.add("transport.open_ms_per_link", float64(rp.openNs)/1e6/links, "ms", fmt.Sprintf("(%d links)", int(links)))
	r.add("transport.open_kb_per_link", float64(rp.openBytes)/1024/links, "KiB", "(heap)")

	r.add("aggregation.add_ns_per_msg", perMsg(layerAdd), "ns", "")
	r.add("aggregation.flush_ns_per_partial", perItem(layerFlush), "ns", "")
	r.add("aggregation.merge_ns_per_partial", float64(tr.tot[layerMerge].ns)/float64(max(rp.merged, 1)), "ns",
		"(replay; without the simulated merge cost)")
	r.add("aggregation.partials_per_msg", float64(plain.AggBoltPartials)/float64(plain.Completed), "ratio", "(dspe.Run)")
	r.add("aggregation.merged_per_final", float64(plain.Agg.Partials)/float64(max(plain.Agg.Finals, 1)), "ratio", "(dspe.Run)")

	elapsed := float64(tele.Elapsed.Nanoseconds())
	r.add("dspe.reduce_busy_max", plain.AggReducerUtil, "share", "")
	r.add("dspe.ack_wait_share", sumSeries(snap, "spout_ack_wait_ns_total")/(sources*elapsed), "share", "(telemetry Run)")
	r.add("dspe.acquire_stall_share", sumSeries(snap, "acquire_stall_ns_total")/(float64(s.workers)*elapsed), "share", "(telemetry Run)")
	r.add("dspe.publish_stall_share", sumSeries(snap, "publish_stall_ns_total")/(sources*elapsed), "share", "(telemetry Run)")
	r.add("dspe.alloc_b_per_msg", float64(b1-b0)/float64(plain.Completed), "B", "")
	cpuPerMsg := float64(plainCPU.Nanoseconds()) / float64(plain.Completed)
	var layered float64
	for _, k := range []spanKind{layerGen, layerRoute, layerSend, layerRecv, layerAdd, layerFlush, layerMerge} {
		layered += perMsg(k)
	}
	layered += float64(base.procCPU-base.threadCPU) / float64(base.msgs)
	r.add("dspe.throughput_eps", plain.Throughput, "1/s", "(untraced Run)")
	r.add("dspe.cpu_ns_per_msg", cpuPerMsg, "ns", "(untraced Run)")
	r.add("dspe.unaccounted_ns_per_msg", cpuPerMsg-layered, "ns", fmt.Sprintf("(layers account for %.0f ns)", layered))
	r.add("dspe.imbalance", plain.Imbalance, "ratio", "")
	r.add("dspe.trace_overhead", plain.Throughput/tele.Throughput-1, "share",
		fmt.Sprintf("(untraced %.4g vs telemetry %.4g msgs/s)", plain.Throughput, tele.Throughput))
	r.add("replay.trace_overhead", out.wall.Seconds()/base.wall.Seconds()-1, "share",
		fmt.Sprintf("(traced replay %.3g s vs %.3g s; %d spans kept)", out.wall.Seconds(), base.wall.Seconds(), len(tr.spans)))
}

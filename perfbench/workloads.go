package main

import (
	"fmt"
	"time"

	"slb/internal/aggregation"
	"slb/internal/dspe"
	"slb/internal/workload"
)

// sources is the spout count of every workload: one per core of the
// two-core reference host, so spouts never outnumber processors.
const sources = 2

// spec is one benchmark workload: a seeded Zipf stream driven through
// dspe.Run over one transport backend, closed loop or paced.
type spec struct {
	name      string
	why       string
	algorithm string
	workers   int
	z         float64
	keys      int
	window    int64 // tumbling-window size in messages (Config.AggWindow)
	shards    int
	transport dspe.Transport
	mergeCost time.Duration // Config.AggMergeCost
	rate      float64       // offered msgs/s; 0 means closed loop
	// repMsgs is the stream length of one timed Run, sized so one Run
	// takes about two seconds on the reference host.
	repMsgs int64
	// replayMsgs is the stream length of the traced staged replay.
	replayMsgs int64
}

var specs = []spec{
	{
		name:      "wide-mem",
		why:       "the paper's at-scale regime: D-C over 256 workers at z=2.0, where routing takes the load-tree and large-d paths",
		algorithm: "D-C", workers: 256, z: 2.0, keys: 100_000,
		window: 1000, shards: 2, transport: dspe.TransportMemory,
		repMsgs: 500_000, replayMsgs: 400_000,
	},
	{
		name:      "skew-tcp",
		why:       "loopback TCP at saturation: the wire (syscalls, frame encode, key dictionary) does the most work",
		algorithm: "D-C", workers: 16, z: 1.4, keys: 10_000,
		window: 1000, shards: 2, transport: dspe.TransportTCP,
		repMsgs: 2_000_000, replayMsgs: 600_000,
	},
	{
		name:      "reduce-bound",
		why:       "W-C with a 50us merge cost saturates 4 reducer shards, so throughput is set by partials merged",
		algorithm: "W-C", workers: 16, z: 1.4, keys: 2_000,
		window: 500, shards: 4, transport: dspe.TransportMemory,
		mergeCost: 50 * time.Microsecond,
		repMsgs:   500_000, replayMsgs: 300_000,
	},
	{
		name:      "paced-tcp",
		why:       "skew-tcp's stream offered open loop at 250k msgs/s: latency is set by window close, coalescing and acks",
		algorithm: "D-C", workers: 16, z: 1.4, keys: 10_000,
		window: 1000, shards: 2, transport: dspe.TransportTCP,
		rate:    250_000,
		repMsgs: 1_000_000, replayMsgs: 600_000,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the dspe configuration of one Run of msgs messages.
// The ack window is left at its default, so TCP runs grow it adaptively.
func (s spec) config(msgs int64, onFinal func(aggregation.Final)) dspe.Config {
	cfg := dspe.Config{
		Workers:      s.workers,
		Sources:      sources,
		Algorithm:    s.algorithm,
		Messages:     msgs,
		AggWindow:    s.window,
		AggShards:    s.shards,
		AggMergeCost: s.mergeCost,
		Transport:    s.transport,
		OnFinal:      onFinal,
	}
	cfg.Core.Seed = coreSeed
	return cfg
}

// coreSeed fixes the partitioners' hash family: the benchmark seed
// varies the input stream only, never the program's own parameters.
const coreSeed = 1

// stream returns the workload's generator for msgs messages.
func (s spec) stream(seed uint64, msgs int64) *workload.Zipf {
	return workload.NewZipf(s.z, s.keys, msgs, seed)
}

func (s spec) transportName() string {
	if s.transport == dspe.TransportTCP {
		return "tcp"
	}
	return "memory"
}

// params is the workload's parameter record printed with every result.
func (s spec) params() map[string]any {
	loop := "closed"
	if s.rate > 0 {
		loop = "open"
	}
	return map[string]any{
		"algorithm": s.algorithm, "workers": s.workers, "sources": sources,
		"z": s.z, "keys": s.keys, "window": s.window, "shards": s.shards,
		"transport": s.transportName(), "merge_cost_us": s.mergeCost.Microseconds(),
		"loop": loop, "rate_msgs_per_s": s.rate,
		"run_msgs": s.repMsgs, "replay_msgs": s.replayMsgs,
	}
}

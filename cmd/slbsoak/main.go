// Command slbsoak runs an hours-capable soak: drifting Zipf workloads
// (workload.Drift) cycled across every engine — eventsim, the dspe
// engine over memory links and (with -tcp, on by default under -short)
// the dspe engine over the loopback TCP transport — with
// each run's telemetry registry sampled on a fixed interval. Interval rows stream
// to stdout as JSONL while the soak progresses; at the end a per-engine
// summary table prints and, optionally, is written as a BENCH_soak
// artifact whose "meta" carries the configuration string and seed so a
// later run can gate against it.
//
// Usage:
//
//	slbsoak [-short] [-tcp] [-faults] [-duration D] [-interval D] [-cycles N]
//	        [-algo NAME] [-workers N] [-sources N] [-shards N]
//	        [-messages N] [-keys N] [-z S] [-epoch N] [-stride N]
//	        [-seed N] [-service D]
//	        [-jsonl PATH] [-snapshot PATH] [-summary PATH]
//	        [-baseline PATH] [-tol F] [-meta k=v]...
//
// Examples:
//
//	slbsoak -duration 2h -jsonl soak.jsonl -summary bench/BENCH_soak_0.json
//	slbsoak -short -baseline ci/BENCH_soak_baseline.json   # CI smoke gate
//	slbsoak -short -faults -baseline ci                    # CI chaos-soak gate
//
// With -baseline (a BENCH_soak JSON file, or a directory of
// accumulated BENCH_soak*.json artifacts) the run exits nonzero when
// any engine's throughput falls more than -tol below the best baseline
// recorded under the same configuration; baselines from other
// configurations are ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"slb/internal/clirun"
	"slb/internal/soak"
	"slb/internal/telemetry"
)

func main() {
	short := flag.Bool("short", false, "CI smoke preset: ~10s soak with small legs (flags set explicitly still win)")
	duration := flag.Duration("duration", time.Hour, "minimum soak length (finishes the in-flight cycle)")
	interval := flag.Duration("interval", 5*time.Second, "telemetry sampling period")
	cycles := flag.Int("cycles", 1, "minimum number of full engine cycles")
	algo := flag.String("algo", "W-C", "partitioner under soak (see slbcli for names)")
	workers := flag.Int("workers", 8, "bolt/worker instances per engine")
	sources := flag.Int("sources", 4, "spout/source instances per engine")
	shards := flag.Int("shards", 4, "reducer shards (R) per engine")
	messages := flag.Int64("messages", 2_000_000, "stream length of each engine leg")
	keys := flag.Int("keys", 20_000, "distinct keys in the drifting workload")
	zipf := flag.Float64("z", 1.2, "Zipf skew of the drifting workload")
	epoch := flag.Int64("epoch", 0, "drift epoch length in messages (0: messages/8)")
	stride := flag.Int("stride", 4096, "key-identity rotation stride per drift epoch")
	seed := flag.Uint64("seed", 1, "workload/partitioner seed (each cycle offsets it)")
	service := flag.Duration("service", 20*time.Microsecond, "dspe per-message bolt service time")
	tcp := flag.Bool("tcp", false, "add a dspe loopback-TCP-transport leg to each cycle (changes the baseline config identity)")
	faults := flag.Bool("faults", false, "inject deterministic chaos (frame drops + connection severs) into the TCP leg; implies -tcp and changes the baseline config identity")
	spin := flag.Bool("spin", false, "busy-wait the dspe service time (faithful CPU load for long soaks; burns host CPU)")
	jsonl := flag.String("jsonl", "", "also append interval rows to this JSONL file")
	snapshotPath := flag.String("snapshot", "", "write the final per-engine telemetry snapshots to this JSON file")
	summaryPath := flag.String("summary", "", "write the summary table to this BENCH_soak JSON file")
	baseline := flag.String("baseline", "", "gate against this BENCH_soak file or artifact directory")
	tol := flag.Float64("tol", 0.35, "gate tolerance: allowed fractional throughput drop vs baseline")
	meta := clirun.MetaFlag{}
	flag.Var(meta, "meta", "key=value run metadata recorded in the summary artifact (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "slbsoak: unexpected arguments; see -h")
		os.Exit(2)
	}

	// -short shrinks every knob the user left at its default; explicit
	// flags keep their value so the preset stays composable.
	if *short {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["duration"] {
			*duration = 8 * time.Second
		}
		if !set["interval"] {
			// Shorter than the fastest leg (the memory leg drains
			// 120k messages in a few hundred ms), so every engine
			// still emits in-flight interval rows, not just finals.
			*interval = 100 * time.Millisecond
		}
		if !set["cycles"] {
			*cycles = 2
		}
		if !set["messages"] {
			*messages = 120_000
		}
		if !set["keys"] {
			*keys = 5_000
		}
		if !set["service"] {
			*service = 5 * time.Microsecond
		}
		if !set["tcp"] {
			// CI's smoke gate should exercise the wire too.
			*tcp = true
		}
	}

	var jsonlFile *os.File
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		jsonlFile = f
	}
	enc := json.NewEncoder(os.Stdout)
	cfg := soak.Config{
		Duration: *duration, Interval: *interval, MinCycles: *cycles,
		Algorithm: *algo, Workers: *workers, Sources: *sources, Shards: *shards,
		Messages: *messages, Keys: *keys, Zipf: *zipf, EpochLen: *epoch,
		Stride: *stride, Seed: *seed, ServiceTime: *service, Spin: *spin,
		TCP: *tcp, Faults: *faults,
		Emit: func(r soak.Row) {
			enc.Encode(r)
			if jsonlFile != nil {
				json.NewEncoder(jsonlFile).Encode(r)
			}
		},
	}

	rep, err := soak.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if _, ok := meta["timestamp"]; !ok {
		meta["timestamp"] = time.Now().UTC().Format(time.RFC3339)
	}
	if _, ok := meta["seed"]; !ok {
		meta["seed"] = strconv.FormatUint(*seed, 10)
	}
	tab := soak.SummaryTable(rep, meta)
	fmt.Fprintf(os.Stderr, "\nsoak: %d cycles, %d rows\n", rep.Cycles, rep.Rows)
	if err := tab.Fprint(os.Stderr); err != nil {
		fatal(err)
	}
	if *summaryPath != "" {
		if err := tab.WriteJSON(*summaryPath); err != nil {
			fatal(err)
		}
	}
	if *snapshotPath != "" {
		if err := writeSnapshots(*snapshotPath, rep.FinalSnapshots); err != nil {
			fatal(err)
		}
	}

	if *baseline != "" {
		bases, err := soak.LoadBaselines(*baseline)
		if err != nil {
			fatal(err)
		}
		if violations := soak.Gate(rep, bases, *tol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "slbsoak: REGRESSION:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "soak: gate passed against %d baseline(s) at tol %.0f%%\n", len(bases), 100**tol)
	}
}

// writeSnapshots dumps each engine's final drained registry snapshot
// into one JSON object keyed by engine name.
func writeSnapshots(path string, snaps map[string]telemetry.Snapshot) error {
	doc := make(map[string]json.RawMessage, len(snaps))
	for eng, s := range snaps {
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		doc[eng] = data
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slbsoak:", err)
	os.Exit(1)
}

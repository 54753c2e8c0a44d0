package experiments

import (
	"fmt"
	"sort"

	"slb/internal/texttab"
)

// Runner regenerates one experiment at a scale.
type Runner func(Scale) ([]*texttab.Table, error)

// Entry describes one registered experiment.
type Entry struct {
	Name        string
	Description string
	// Cluster marks the DSPE experiments (Figs 13–14), exposed through
	// cmd/slbstorm rather than cmd/slbsim.
	Cluster bool
	Run     Runner
}

// registry holds every experiment by CLI name.
var registry = map[string]Entry{
	"table1": {"table1", "Table I: dataset statistics", false, Table1},
	"fig1":   {"fig1", "Fig 1: imbalance vs workers on WP", false, Fig1},
	"fig3":   {"fig3", "Fig 3: head cardinality vs skew", false, Fig3},
	"fig4":   {"fig4", "Fig 4: d/n chosen by D-C vs skew", false, Fig4},
	"fig5":   {"fig5", "Fig 5: memory vs PKG", false, Fig5},
	"fig6":   {"fig6", "Fig 6: memory vs SG", false, Fig6},
	"fig7":   {"fig7", "Fig 7: imbalance vs skew per threshold (W-C, RR)", false, Fig7},
	"fig8":   {"fig8", "Fig 8: per-worker head/tail load split", false, Fig8},
	"fig9":   {"fig9", "Fig 9: D-C's d vs empirical minimum", false, Fig9},
	"fig10":  {"fig10", "Fig 10: imbalance vs skew grid (ZF)", false, Fig10},
	"fig11":  {"fig11", "Fig 11: imbalance vs workers (WP/TW/CT)", false, Fig11},
	"fig12":  {"fig12", "Fig 12: imbalance over time (WP/TW/CT)", false, Fig12},
	"fig13":  {"fig13", "Fig 13: cluster throughput", true, Fig13},
	"fig14":  {"fig14", "Fig 14: cluster latency", true, Fig14},

	"ablate-eps":        {"ablate-eps", "Ablation: solver tolerance ε", false, AblateEps},
	"ablate-sketch":     {"ablate-sketch", "Ablation: SpaceSaving capacity", false, AblateSketch},
	"ablate-prefix":     {"ablate-prefix", "Ablation: solver prefix constraints", false, AblatePrefix},
	"ablate-merge":      {"ablate-merge", "Ablation: local vs merged sketches", false, AblateMerge},
	"ablate-window":     {"ablate-window", "Ablation: insertion-only vs sliding sketch under drift", false, AblateWindow},
	"ablate-oracle":     {"ablate-oracle", "Ablation: online sketch vs ground-truth head", false, AblateOracle},
	"ablate-saturation": {"ablate-saturation", "Ablation: Fig 13 at full worker saturation", true, AblateSaturation},
	"ablate-straggler":  {"ablate-straggler", "Ablation: straggler worker (load-proxy limitation)", true, AblateStraggler},
	"live-fig13":        {"live-fig13", "Fig 13 on the real goroutine runtime (wall clock)", true, LiveFig13},
	"aggregation":       {"aggregation", "Aggregation overhead: two-phase windowed aggregation cost per algorithm and window size", true, AggregationOverhead},
	"scale":             {"scale", "Large deployments: routing cost, imbalance and throughput at n up to 16384 workers", true, ScaleExperiment},
	"transport":         {"transport", "Transport: backend sweep (memory vs loopback TCP), degraded links under chaos, eventsim link-delay and outage sensitivity", true, TransportExperiment},
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// List returns all experiments, cluster ones included or not, sorted by
// name for stable CLI output.
func List(includeCluster bool) []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		if e.Cluster && !includeCluster {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunAll executes every registered experiment matching the cluster
// filter, in name order, returning name → tables.
func RunAll(sc Scale, cluster bool) (map[string][]*texttab.Table, error) {
	out := make(map[string][]*texttab.Table)
	for _, e := range List(true) {
		if e.Cluster != cluster {
			continue
		}
		tabs, err := e.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		out[e.Name] = tabs
	}
	return out, nil
}

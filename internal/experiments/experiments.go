// Package experiments reproduces every table and figure of the paper's
// evaluation (§8): Table 1 (optimization time), Figure 10 (emulated
// per-node work), Figures 11-15 (replication sensitivity and variability),
// Figures 16-17 (routing asymmetry), Figures 18-19 (aggregation tradeoffs),
// plus the datacenter-placement comparison discussed in §8.2. Each
// experiment returns structured results and renders the same rows/series
// the paper reports.
package experiments

import (
	"fmt"

	"nwids/internal/core"
	"nwids/internal/obs"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// Options configure an experiment run.
type Options struct {
	// Topologies selects evaluation topologies by name; nil means all eight
	// in Table 1 order.
	Topologies []string
	// Seed drives all randomized inputs (default 1).
	Seed int64
	// Quick trims sweep densities and repetition counts for smoke runs and
	// unit tests; headline shapes are preserved.
	Quick bool
	// Workers bounds the sweep engine's concurrency: how many sweep points
	// (LP solves, emulation runs) may execute at once. 0 means
	// runtime.GOMAXPROCS(0); 1 forces sequential execution. Results are
	// aggregated in sweep-point order, so rendered output is identical for
	// every value.
	Workers int
	// ColdLP disables warm-start basis chaining: every sweep point solves
	// its LP from the crash basis, as if no earlier point existed. Rendered
	// output must be byte-identical with and without it — the CI
	// determinism gate diffs both modes (see warm.go for the contract).
	ColdLP bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Obs, when non-nil, accumulates run metrics (solver stats, per-node
	// loads, emulation measurements) for the -metrics JSON artifact.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Topologies == nil {
		o.Topologies = topology.EvaluationNames()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// observe records one solved assignment into the run's metrics registry:
// solver counters under lp.*, per-node utilization under node.load. A nil
// registry records nothing.
func (o Options) observe(a *core.Assignment) {
	if o.Obs == nil || a == nil {
		return
	}
	core.RecordLPStats(o.Obs, a.Iterations, a.SolveTime, a.LPStats)
	loads := o.Obs.Histogram("node.load")
	for j := range a.NodeLoad {
		loads.Observe(a.NodeLoad[j][0])
	}
	o.Obs.Gauge("node.load.max").Max(a.MaxLoad())
}

// scenarioFor builds the default evaluation scenario for a named topology:
// gravity traffic at the paper's scale, calibrated capacities (§8.2).
func scenarioFor(name string) (*core.Scenario, error) {
	g := topology.ByName(name)
	if g == nil {
		return nil, fmt.Errorf("experiments: unknown topology %q", name)
	}
	return core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{}), nil
}

// Architecture names used across figures.
const (
	ArchIngress       = "Ingress"
	ArchPathNoRep     = "Path, No Replicate"
	ArchPathAugmented = "Path, Augmented"
	ArchPathReplicate = "Path, Replicate"
	ArchDCOnly        = "DC Only"
	ArchDCOneHop      = "DC + One-hop"
	ArchOneHop        = "One-hop"
	ArchTwoHop        = "Two-hop"
)

// solveArch evaluates a named architecture on a scenario with the default
// parameters (MaxLinkLoad 0.4, DC 10× unless overridden by the figure),
// recording solver metrics into o.Obs.
func solveArch(o Options, s *core.Scenario, arch string, mll, dcCap float64) (*core.Assignment, error) {
	a, err := solveArchRaw(s, arch, mll, dcCap)
	if err == nil {
		o.observe(a)
	}
	return a, err
}

func solveArchRaw(s *core.Scenario, arch string, mll, dcCap float64) (*core.Assignment, error) {
	if arch == ArchIngress {
		return core.Ingress(s), nil
	}
	cfg, ok := archReplicationConfig(arch, mll, dcCap, s.Graph.NumNodes())
	if !ok {
		return nil, fmt.Errorf("experiments: unknown architecture %q", arch)
	}
	return core.SolveReplication(s, cfg)
}

// archReplicationConfig maps a named architecture to its replication-LP
// configuration. ok is false for ArchIngress (closed form, no LP) and
// unknown names.
func archReplicationConfig(arch string, mll, dcCap float64, nodes int) (core.ReplicationConfig, bool) {
	switch arch {
	case ArchPathNoRep:
		return core.ReplicationConfig{Mirror: core.MirrorNone}, true
	case ArchPathAugmented:
		return core.ReplicationConfig{
			Mirror: core.MirrorNone, ExtraNodeCapacity: dcCap / float64(nodes),
		}, true
	case ArchPathReplicate, ArchDCOnly:
		return core.ReplicationConfig{
			Mirror: core.MirrorDCOnly, MaxLinkLoad: mll, DCCapacity: dcCap,
		}, true
	case ArchDCOneHop:
		return core.ReplicationConfig{
			Mirror: core.MirrorDCPlusOneHop, MaxLinkLoad: mll, DCCapacity: dcCap,
		}, true
	case ArchOneHop:
		return core.ReplicationConfig{
			Mirror: core.MirrorOneHop, MaxLinkLoad: mll,
		}, true
	case ArchTwoHop:
		return core.ReplicationConfig{
			Mirror: core.MirrorTwoHop, MaxLinkLoad: mll,
		}, true
	}
	return core.ReplicationConfig{}, false
}

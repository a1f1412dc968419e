package shim

import (
	"fmt"
	"sort"

	"nwids/internal/core"
	"nwids/internal/packet"
)

// Action is the shim's per-packet decision (§7.2).
type Action uint8

// Actions.
const (
	// Skip: another node's shim owns this hash range; ignore the packet.
	Skip Action = iota
	// Process: hand the packet to the local NIDS process.
	Process
	// Replicate: copy the packet into the tunnel toward Mirror.
	Replicate
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Skip:
		return "skip"
	case Process:
		return "process"
	case Replicate:
		return "replicate"
	default:
		return fmt.Sprintf("action(%d)", a)
	}
}

// ClassKey identifies a traffic class from a packet: the initiator-side
// (ingress, egress) PoP pair.
type ClassKey struct {
	SrcPoP, DstPoP uint8
}

// RangeRule maps the hash range [Lo, Hi) to an action for one class.
type RangeRule struct {
	Lo, Hi float64
	Act    Action
	// Mirror is the NIDS node to replicate to when Act == Replicate.
	Mirror int
}

// Config is the shim configuration for one NIDS node, compiled from the
// controller's assignment (§7.1). Hash ranges not covered by any rule are
// skipped (they belong to other nodes).
type Config struct {
	NodeID int
	Seed   uint32
	Rules  map[ClassKey][]RangeRule
}

// ClassRanges is the network-wide hash-range partition of one class: the
// §7.1 mapping of p and o fractions onto non-overlapping subranges of
// [0, 1). It is shared by all shim configs so every node agrees on range
// ownership.
type ClassRanges struct {
	Key    ClassKey
	Ranges []OwnedRange
}

// OwnedRange assigns [Lo, Hi) to a processing node; Via is the on-path
// replicator for offloaded ranges (-1 for local processing).
type OwnedRange struct {
	Lo, Hi float64
	Node   int
	Via    int
}

// PartitionTolerance is the float-drift band within which a class's
// fractions are trusted as summing to 1. Beyond it the fractions are
// renormalized before layout, so an interior bound can never overshoot 1
// (which would invert the final snapped range and uncover the tail) or
// undershoot enough to silently stretch the last owner.
const PartitionTolerance = 1e-9

// PartitionClass maps a class's fractional actions onto contiguous
// non-overlapping hash ranges covering [0, 1), first the local p fractions
// and then the offload o fractions, in deterministic order (§7.1: the
// specific order does not matter as long as all shims agree). Fractions
// are validated to sum to 1 within PartitionTolerance and renormalized
// when they do not, so float drift upstream cannot create overlapping or
// uncovered interior ranges.
func PartitionClass(actions []core.ActionFrac) []OwnedRange {
	acts := append([]core.ActionFrac(nil), actions...)
	SortActions(acts)
	sum := 0.0
	for _, a := range acts {
		if a.Frac > 0 {
			sum += a.Frac
		}
	}
	if sum <= 0 {
		return nil
	}
	scale := 1.0
	if d := sum - 1; d > PartitionTolerance || d < -PartitionTolerance {
		scale = 1 / sum
	}
	var out []OwnedRange
	acc := 0.0
	for _, a := range acts {
		if a.Frac <= 0 {
			continue
		}
		out = append(out, OwnedRange{Lo: acc, Hi: acc + a.Frac*scale, Node: a.Node, Via: a.Via})
		acc += a.Frac * scale
	}
	// After renormalization the fractions sum to 1 up to rounding; snap the
	// final bound so residual float drift cannot leave an uncovered sliver.
	if len(out) > 0 {
		out[len(out)-1].Hi = 1
	}
	return out
}

// CheckPartition validates a class partition: every range must be
// non-inverted, the ranges contiguous from 0, and the final bound exactly
// 1, so every hash value has exactly one owning range. The controller
// rejects a planned reconfiguration whose partition fails this check.
func CheckPartition(ranges []OwnedRange) error {
	if len(ranges) == 0 {
		return fmt.Errorf("shim: empty partition")
	}
	acc := 0.0
	for i, r := range ranges {
		if r.Lo != acc {
			return fmt.Errorf("shim: partition range %d starts at %.17g, want %.17g", i, r.Lo, acc)
		}
		if r.Hi <= r.Lo {
			return fmt.Errorf("shim: partition range %d is inverted or empty: [%.17g, %.17g)", i, r.Lo, r.Hi)
		}
		acc = r.Hi
	}
	if acc != 1 {
		return fmt.Errorf("shim: partition covers [0, %.17g), want [0, 1)", acc)
	}
	return nil
}

// CompileConfigs translates an assignment into one shim Config per NIDS
// node (the DC included: it processes everything tunneled to it but needs
// no class rules). All configs share the hash seed so ranges line up.
//
// The shim classifies packets by (ingress, egress) PoP pair; when a
// scenario defines several application classes over the same pair (§3),
// their fractional assignments are blended volume-weighted into one range
// partition, which is what a port-blind shim can execute. Ownership
// invariants (exactly one owner, both directions pinned) are unaffected;
// only the per-application load split becomes approximate.
func CompileConfigs(a *core.Assignment, seed uint32) map[int]*Config {
	return ConfigsFromPartitions(a, seed, PartitionAll(a))
}

// BlendedActions returns the volume-weighted blend of a's per-class
// fractional assignments keyed by (ingress, egress) PoP pair — the class
// granularity a port-blind shim can execute. The fractions under each key
// sum to 1 (up to float drift), one entry per distinct (Node, Via) pair,
// sorted in PartitionClass's deterministic layout order.
func BlendedActions(a *core.Assignment) map[ClassKey][]core.ActionFrac {
	type nv struct{ node, via int }
	weights := make(map[ClassKey]map[nv]float64)
	volume := make(map[ClassKey]float64)
	for c := range a.Actions {
		cl := &a.Scenario.Classes[c]
		key := ClassKey{SrcPoP: uint8(cl.Src), DstPoP: uint8(cl.Dst)}
		m, ok := weights[key]
		if !ok {
			m = make(map[nv]float64)
			weights[key] = m
		}
		volume[key] += cl.Sessions
		for _, act := range a.Actions[c] {
			m[nv{act.Node, act.Via}] += act.Frac * cl.Sessions
		}
	}
	out := make(map[ClassKey][]core.ActionFrac, len(weights))
	for key, m := range weights {
		vol := volume[key]
		if vol == 0 {
			continue
		}
		blended := make([]core.ActionFrac, 0, len(m))
		for k, w := range m {
			//lint:ignore nondeterminism SortActions below totally orders actions by their unique (Node,Via) key, so the append order here is immaterial
			blended = append(blended, core.ActionFrac{Node: k.node, Via: k.via, Frac: w / vol})
		}
		SortActions(blended)
		out[key] = blended
	}
	return out
}

// SortActions orders fractional actions in the deterministic layout order
// PartitionClass uses: local p ranges first, then offload o ranges, by
// (Node, Via). Every action's (Node, Via) pair is unique after blending,
// so the order is total.
func SortActions(acts []core.ActionFrac) {
	sort.SliceStable(acts, func(i, j int) bool {
		li, lj := acts[i].Via >= 0, acts[j].Via >= 0
		if li != lj {
			return !li // local p ranges first
		}
		if acts[i].Node != acts[j].Node {
			return acts[i].Node < acts[j].Node
		}
		return acts[i].Via < acts[j].Via
	})
}

// PartitionAll lays every blended class of the assignment onto hash ranges
// from scratch (no previous partition to respect). The online controller
// uses this for the initial epoch and the full-recompute baseline; see
// internal/controller for the churn-minimizing repartition.
func PartitionAll(a *core.Assignment) map[ClassKey][]OwnedRange {
	parts := make(map[ClassKey][]OwnedRange)
	for key, blended := range BlendedActions(a) {
		if p := PartitionClass(blended); p != nil {
			parts[key] = p
		}
	}
	return parts
}

// ConfigsFromPartitions translates per-class hash-range partitions into one
// shim Config per NIDS node of the assignment (the DC included: it
// processes everything tunneled to it but needs no class rules). All
// configs share the hash seed so ranges line up.
func ConfigsFromPartitions(a *core.Assignment, seed uint32, parts map[ClassKey][]OwnedRange) map[int]*Config {
	cfgs := make(map[int]*Config)
	get := func(node int) *Config {
		c, ok := cfgs[node]
		if !ok {
			c = &Config{NodeID: node, Seed: seed, Rules: make(map[ClassKey][]RangeRule)}
			cfgs[node] = c
		}
		return c
	}
	for j := 0; j < a.NumNIDS(); j++ {
		get(j)
	}
	for key, ranges := range parts {
		for _, r := range ranges {
			if r.Via < 0 {
				cfg := get(r.Node)
				cfg.Rules[key] = append(cfg.Rules[key], RangeRule{Lo: r.Lo, Hi: r.Hi, Act: Process})
			} else {
				cfg := get(r.Via)
				cfg.Rules[key] = append(cfg.Rules[key], RangeRule{Lo: r.Lo, Hi: r.Hi, Act: Replicate, Mirror: r.Node})
			}
		}
	}
	for _, cfg := range cfgs {
		for _, rules := range cfg.Rules {
			sort.Slice(rules, func(i, j int) bool { return rules[i].Lo < rules[j].Lo })
		}
	}
	return cfgs
}

// KeyForPacket derives the class key from a packet using its session
// direction: reverse-direction packets are flipped so both directions of a
// session share a key (the §7.2 bidirectional consistency requirement).
func KeyForPacket(p packet.Packet) ClassKey {
	src, dst := packet.PoPOf(p.Tuple.SrcIP), packet.PoPOf(p.Tuple.DstIP)
	if p.Dir == packet.Reverse {
		src, dst = dst, src
	}
	return ClassKey{SrcPoP: uint8(src), DstPoP: uint8(dst)}
}

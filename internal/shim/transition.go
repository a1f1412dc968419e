package shim

import (
	"fmt"

	"nwids/internal/packet"
)

// This file implements the §9 "Consistent configurations" mechanism: when
// the controller pushes a new configuration, each shim honors both the
// previous and the new configuration during the transient period. Work may
// be duplicated, but no session is ever left unowned while nodes disagree
// about which configuration epoch is current.

// MergeConfigs builds the transition configuration for one node from its
// previous and next configurations. Both must share the node ID and hash
// seed (ranges are only comparable under the same hash); a mismatch returns
// an error so a controller pushing a stale or misaddressed epoch sees a
// rejected transition instead of a crashed shim.
func MergeConfigs(prev, next *Config) (*Config, error) {
	if prev == nil || next == nil {
		return nil, fmt.Errorf("shim: MergeConfigs with nil config")
	}
	if prev.NodeID != next.NodeID {
		return nil, fmt.Errorf("shim: MergeConfigs across different nodes (%d vs %d)", prev.NodeID, next.NodeID)
	}
	if prev.Seed != next.Seed {
		return nil, fmt.Errorf("shim: MergeConfigs across different hash seeds (%d vs %d)", prev.Seed, next.Seed)
	}
	out := &Config{NodeID: prev.NodeID, Seed: prev.Seed, Rules: make(map[ClassKey][]RangeRule)}
	for key, rules := range prev.Rules {
		out.Rules[key] = append(out.Rules[key], rules...)
	}
	for key, rules := range next.Rules {
	nextRule:
		for _, r := range rules {
			for _, have := range out.Rules[key] {
				if have == r {
					continue nextRule // identical rule carried over
				}
			}
			out.Rules[key] = append(out.Rules[key], r)
		}
	}
	return out, nil
}

// DecideAllInto is DecideFlowInto for a single packet: it hashes p's tuple
// under the configuration's seed and appends every prescribed decision to
// out (typically buf[:0] of a reused slice, so the per-packet transition
// path allocates nothing in steady state).
func (s *Shim) DecideAllInto(p packet.Packet, out []Decision) []Decision {
	return s.DecideFlowInto(p, HashTuple(p.Tuple, s.comp.seed), 1, out)
}

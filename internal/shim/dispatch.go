package shim

import (
	"fmt"

	"nwids/internal/packet"
)

// Decision is the outcome of a shim lookup for one packet.
type Decision struct {
	Act    Action
	Mirror int
}

// Counters tallies shim activity. Processed and Replicated count emitted
// decisions (work performed), Skipped counts packets with no decision, and
// Dual counts the extra decisions beyond the first that a merged §9
// transition configuration prescribes for one packet; under a single
// configuration Dual is always zero and Seen = Processed + Replicated +
// Skipped holds exactly.
type Counters struct {
	Seen       uint64
	Processed  uint64
	Replicated uint64
	Skipped    uint64
	// NoClass counts packets whose class had no rules at this node (still
	// skipped, tracked separately to surface misconfigurations).
	NoClass uint64
	// Dual counts decisions beyond the first emitted for a single packet:
	// the duplicated work a merged transition configuration performs so no
	// session is dropped while an epoch rolls out.
	Dual uint64
}

// Sub returns the per-field deltas of c since prev. The emulation's
// telemetry ticks use it to turn cumulative counters into per-tick rates.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Seen:       c.Seen - prev.Seen,
		Processed:  c.Processed - prev.Processed,
		Replicated: c.Replicated - prev.Replicated,
		Skipped:    c.Skipped - prev.Skipped,
		NoClass:    c.NoClass - prev.NoClass,
		Dual:       c.Dual - prev.Dual,
	}
}

// Add returns the field-wise sum of c and other, for fleet-wide rollups.
func (c Counters) Add(other Counters) Counters {
	return Counters{
		Seen:       c.Seen + other.Seen,
		Processed:  c.Processed + other.Processed,
		Replicated: c.Replicated + other.Replicated,
		Skipped:    c.Skipped + other.Skipped,
		NoClass:    c.NoClass + other.NoClass,
		Dual:       c.Dual + other.Dual,
	}
}

// Reconciled reports whether the counter identity holds: every packet seen
// was either skipped or produced decisions, and every decision beyond the
// first was tallied as Dual. Under a single (non-transition) configuration
// this reduces to Seen = Processed + Replicated + Skipped.
func (c Counters) Reconciled() bool {
	return c.Seen+c.Dual == c.Processed+c.Replicated+c.Skipped
}

// Shim executes a Config: it hashes each packet's canonical 5-tuple, looks
// up the owning hash range for the packet's class, and decides whether to
// hand the packet to the local NIDS, replicate it to a mirror, or skip it.
// Shims are deterministic but not safe for concurrent use: a decision
// writes the counters. The emulation drives each shim from one goroutine.
type Shim struct {
	cfg      *Config
	comp     *compiled
	Counters Counters
}

// New returns a shim executing the given config.
func New(cfg *Config) *Shim { return &Shim{cfg: cfg, comp: compileConfig(cfg)} }

// NodeID returns the NIDS node this shim serves.
func (s *Shim) NodeID() int { return s.cfg.NodeID }

// Config returns the currently installed configuration.
func (s *Shim) Config() *Config { return s.cfg }

// SetConfig installs a new configuration epoch, preserving counters. The
// controller's two-phase rollout calls this twice per reconfiguration:
// first with the merged §9 transition config, then — once every shim has
// acknowledged — with the clean next-epoch config. An attempt to install a
// config for a different node or hash seed is rejected so a misaddressed
// push cannot silently corrupt range ownership.
func (s *Shim) SetConfig(cfg *Config) error {
	if err := s.CheckConfig(cfg); err != nil {
		return err
	}
	s.cfg = cfg
	s.comp = compileConfig(cfg)
	return nil
}

// CheckConfig validates a config against this shim without installing it:
// exactly the checks SetConfig applies. A fleet pushing one epoch to many
// shims can check every config first and only then install, so a nacked
// push leaves no shim switched to the new epoch.
func (s *Shim) CheckConfig(cfg *Config) error {
	if cfg == nil {
		return fmt.Errorf("shim: SetConfig with nil config")
	}
	if cfg.NodeID != s.cfg.NodeID {
		return fmt.Errorf("shim: SetConfig for node %d on node %d", cfg.NodeID, s.cfg.NodeID)
	}
	if cfg.Seed != s.cfg.Seed {
		return fmt.Errorf("shim: SetConfig with hash seed %d, shim uses %d", cfg.Seed, s.cfg.Seed)
	}
	return nil
}

// DecideFlowInto appends every decision the configuration prescribes for
// an n-packet run of one flow to out and returns it; nothing appended means
// Skip. p is any packet of the flow and u must equal HashTuple(p.Tuple,
// seed). The class key and the session hash are direction-independent, so
// one lookup holds for every packet of the flow, in either direction.
//
// Every matching Process or Replicate rule contributes, in rule order, with
// identical decisions deduplicated: under a single configuration ranges are
// disjoint and at most one decision comes out; under a merged §9 transition
// configuration the old and the new owner can both match. Counters advance
// as if each of the n packets were decided alone: Processed or Replicated
// by n per decision (work performed, not rules matched), Skipped by n when
// there is none, Dual by n per decision beyond the first.
func (s *Shim) DecideFlowInto(p packet.Packet, u uint64, n int, out []Decision) []Decision {
	per := uint64(n)
	s.Counters.Seen += per
	c := s.comp
	i := classIdx(KeyForPacket(p))
	if i+1 >= len(c.off) || !c.hasClass(i) {
		s.Counters.NoClass += per
		s.Counters.Skipped += per
		return out
	}
	base := len(out)
rules:
	for k := c.off[i]; k < c.off[i+1]; k++ {
		r := &c.rules[k]
		if u < r.lo || u >= r.hi || (r.act != Process && r.act != Replicate) {
			continue
		}
		d := Decision{Act: r.act, Mirror: int(r.mirror)}
		for _, have := range out[base:] {
			if have == d {
				continue rules
			}
		}
		out = append(out, d)
		if d.Act == Process {
			s.Counters.Processed += per
		} else {
			s.Counters.Replicated += per
		}
	}
	if emitted := len(out) - base; emitted == 0 {
		s.Counters.Skipped += per
	} else {
		s.Counters.Dual += per * uint64(emitted-1)
	}
	return out
}

// DecideFlow returns the first decision DecideFlowInto makes for the flow,
// or Skip when it makes none; counters advance as DecideFlowInto's do.
// Under a single configuration that first decision is the only one.
func (s *Shim) DecideFlow(p packet.Packet, u uint64, n int) Decision {
	var buf [2]Decision
	if out := s.DecideFlowInto(p, u, n, buf[:0]); len(out) > 0 {
		return out[0]
	}
	return Decision{Act: Skip}
}

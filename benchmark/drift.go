package main

import (
	"fmt"
	"time"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/packet"
	"nwids/internal/shim"
	"nwids/internal/topology"
)

// driftStage measures the third shipped packet walk: emulation.RunDrift, a
// flash crowd replayed through the fleet with the online controller, the
// drift detectors and a centralised oracle engine in the loop.
type driftStage struct {
	w    workload
	seed int64

	cfg *emulation.DriftConfig

	// For shim.decide_all_ns: shims on calm∪peak transition configs, the
	// state RunDrift's fleet is in between a merged and a clean push.
	routing  *topology.Routing
	merged   []*shim.Shim
	sessions []packet.Session

	ns []float64 // end-to-end samples: nanoseconds per packet
}

func (s *driftStage) setup() error {
	g := topology.ByName(pktTopo)
	cfg, err := emulation.DriftScenario("flash", g, s.w.DriftSessions)
	if err != nil {
		return err
	}
	cfg.HashSeed, cfg.GenSeed = hashSeed(s.seed), s.seed
	s.cfg = cfg

	calm, err := core.SolveReplication(cfg.Base, cfg.Replication)
	if err != nil {
		return err
	}
	peak, err := core.SolveReplication(cfg.Base.WithMatrix(cfg.Phases[2].Matrix), cfg.Replication)
	if err != nil {
		return err
	}
	prev, next := shim.CompileConfigs(calm, cfg.HashSeed), shim.CompileConfigs(peak, cfg.HashSeed)
	s.merged = make([]*shim.Shim, calm.NumNIDS())
	for j := range s.merged {
		m, err := shim.MergeConfigs(prev[j], next[j])
		if err != nil {
			return err
		}
		s.merged[j] = shim.New(m)
	}
	s.routing = cfg.Base.Routing
	s.sessions = emulation.GenerateWorkload(emulation.Config{
		Assignment: calm, TotalSessions: 4 * spanBatch, GenSeed: s.seed,
	})
	return nil
}

// run times one whole RunDrift and returns its seconds and nanoseconds per
// packet. One operation, failed when the fleet missed a detection the
// oracle made, a session had no owner (or two outside a transition
// window), or the shim counters do not reconcile.
func (s *driftStage) run(rep *report) (secs, nsPerPkt float64, res *emulation.DriftResult) {
	t0 := time.Now()
	res, err := emulation.RunDrift(*s.cfg)
	secs = time.Since(t0).Seconds()
	if err == nil && (res.Missed > 0 || res.OwnershipErrors > 0 || !res.Reconciled) {
		err = fmt.Errorf("RunDrift: missed %d, ownership errors %d, reconciled %v",
			res.Missed, res.OwnershipErrors, res.Reconciled)
	}
	rep.check(err)
	if err != nil {
		return 0, 0, nil
	}
	return secs, secs * 1e9 / float64(res.Sessions*packetsPerSession), res
}

func (s *driftStage) sampler(share float64, rep *report) *sampler {
	return &sampler{share: share, floor: 5, take: func() {
		_, ns, _ := s.run(rep)
		s.ns = append(s.ns, ns)
	}}
}

func (s *driftStage) finish(rep *report) { rep.timing("drift_ns_per_pkt", "ns", s.ns, 1) }

func (s *driftStage) traced(budget time.Duration, rec *recorder, rep *report) (float64, float64) {
	var last *emulation.DriftResult
	tracedSecs, plainSecs := pairs(budget*8/10, 1, func(i int) float64 {
		rec.rep = i
		id := rec.begin("emulation.run_drift")
		secs, _, res := s.run(rep)
		rec.end(id)
		last = res
		return secs
	}, func(int) float64 {
		secs, _, _ := s.run(rep)
		return secs
	})
	// The run is a pure function of the seeds, so its counts repeat exactly.
	if last != nil {
		rep.value("drift.reconfigs", "count", float64(len(last.Reconfigs)))
		rep.value("drift.drift_events", "count", float64(last.DriftEvents))
		rep.value("drift.sessions_moved", "count", float64(last.SessionsMoved))
	}

	// RunDrift asks every path node's shim about every packet with
	// DecideAllInto; time that call alone, on transition configs.
	var buf []shim.Decision
	calls := 0
	xs := collect(budget/10, 5, 1000, func(int) float64 {
		calls = 0
		return timed(func() {
			for lo := 0; lo < len(s.sessions); lo += spanBatch {
				id := rec.begin("shim.decide_all")
				for _, sess := range s.sessions[lo:min(lo+spanBatch, len(s.sessions))] {
					nodes := s.routing.Path(sess.SrcPoP, sess.DstPoP).Nodes
					for _, p := range sess.Packets {
						for _, node := range nodes {
							buf = s.merged[node].DecideAllInto(p, buf[:0])
							sink += uint64(len(buf))
							calls++
						}
					}
				}
				rec.end(id)
			}
		})
	})
	rep.timing("shim.decide_all_ns", "ns", xs, ratio(1e9, float64(calls)))
	return summarize(tracedSecs).Median, summarize(plainSecs).Median
}

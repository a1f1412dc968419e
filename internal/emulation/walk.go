package emulation

import (
	"time"

	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// sessionWalk is the one way a session's packets travel a path of shims,
// shared by Run and RunDrift. Its buffers are reused from session to
// session, so the steady state allocates nothing.
type sessionWalk struct {
	shims []*shim.Shim // node-indexed
	seed  uint32
	clock *obs.VirtualClock
	owner *ownerSet
	// dec holds the session's decisions path position by position:
	// dec[off[i]:off[i+1]] is what the shim at position i decided.
	dec []shim.Decision
	off []int
}

func newSessionWalk(shims []*shim.Shim, seed uint32, clock *obs.VirtualClock, nNIDS int) *sessionWalk {
	return &sessionWalk{shims: shims, seed: seed, clock: clock, owner: newOwnerSet(nNIDS)}
}

// walk replays sess along the forward path nodes; reverse-direction
// packets take the path back to front. Dispatch is per flow — the class key
// and session hash are direction-independent — so the tuple is hashed once
// and each path node's shim decides once with DecideFlowInto, its counters
// charged up front for every packet of the session (nothing reads them
// mid-session, so no reading changes). The packets then visit their
// direction's nodes in order and act performs each decision. walk returns
// the nodes that took ownership of the session in first-ownership order,
// valid until the next walk.
//
// The virtual clock is charged packetTick per packet, dispatchTick per
// node and actionTick per decision. The clock rule: every read of the
// clock happens at a session boundary (telemetry ticks, the run, session
// and aggregation spans, drift-run timeline events, controller timers) or
// inside a traced session. So only a traced session — non-nil span, which
// gets ingress, dispatch, analysis and replicate children — advances the
// clock tick by tick; an untraced one advances once by the same sum before
// walk returns. Durations are integer nanoseconds, so both land on the same
// instant. Anything new that reads the clock mid-session must be traced.
func (w *sessionWalk) walk(sess *packet.Session, nodes []int, span *obs.TraceSpan,
	act func(node int, d shim.Decision, p packet.Packet) error) ([]int, error) {
	w.dec, w.off = w.dec[:0], append(w.off[:0], 0)
	if len(sess.Packets) > 0 {
		u := shim.HashTuple(sess.Tuple, w.seed)
		for _, node := range nodes {
			w.dec = w.shims[node].DecideFlowInto(sess.Packets[0], u, len(sess.Packets), w.dec)
			w.off = append(w.off, len(w.dec))
		}
	}
	dec, off, owner := w.dec, w.off, w.owner
	owner.reset()
	for _, p := range sess.Packets {
		if span != nil {
			w.tick(span.Child("ingress"), packetTick)
		}
		for j := range nodes {
			i := j
			if p.Dir == packet.Reverse {
				i = len(nodes) - 1 - j
			}
			node := nodes[i]
			if span != nil {
				w.tick(span.Child("dispatch").Arg("node", node), dispatchTick)
			}
			for _, d := range dec[off[i]:off[i+1]] {
				if span != nil {
					w.tick(actionSpan(span, node, d), actionTick)
				}
				if err := act(node, d, p); err != nil {
					return nil, err
				}
				if d.Act == shim.Replicate {
					owner.add(d.Mirror)
				} else {
					owner.add(node)
				}
			}
		}
	}
	if span == nil && len(sess.Packets) > 0 {
		perPacket := packetTick + time.Duration(len(nodes))*dispatchTick + time.Duration(len(dec))*actionTick
		w.clock.Advance(time.Duration(len(sess.Packets)) * perPacket)
	}
	return owner.list, nil
}

// tick advances the clock by d inside the span sp and closes it.
func (w *sessionWalk) tick(sp *obs.TraceSpan, d time.Duration) {
	w.clock.Advance(d)
	sp.End()
}

// actionSpan opens the traced child span of one decision at node.
func actionSpan(parent *obs.TraceSpan, node int, d shim.Decision) *obs.TraceSpan {
	if d.Act == shim.Replicate {
		return parent.Child("replicate").Arg("node", node).Arg("mirror", d.Mirror)
	}
	return parent.Child("analysis").Arg("node", node)
}

// ownerSet tracks which nodes took ownership of the current session's
// packets. It replaces a per-session map allocation with two reusable
// slices; iteration order is insertion order, so consumers are
// deterministic.
type ownerSet struct {
	mark []bool
	list []int
}

func newOwnerSet(n int) *ownerSet { return &ownerSet{mark: make([]bool, n)} }

func (o *ownerSet) add(node int) {
	if !o.mark[node] {
		o.mark[node] = true
		o.list = append(o.list, node)
	}
}

func (o *ownerSet) reset() {
	for _, node := range o.list {
		o.mark[node] = false
	}
	o.list = o.list[:0]
}

// payloadBytes sums the payload sizes of a session's packets.
func payloadBytes(sess *packet.Session) uint64 {
	var n uint64
	for _, p := range sess.Packets {
		n += uint64(len(p.Payload))
	}
	return n
}

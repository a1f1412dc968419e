package emulation

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nwids/internal/nids"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// liveNet is Run's live mode: one tunnel server per node on the loopback
// interface, delivering into that node's engine, and one tunnel per
// (replicator, mirror) pair, dialed lazily at its first flush. Replication
// is batched per pair and pushed through Tunnel.SendBatch, paying the
// tunnel lock and writer overhead per batch instead of per packet.
//
// The servers call engines from their own goroutines, so in live mode —
// and only there — every engine access before the drain completes goes
// through the node's lock: the servers' deliveries and the walk's local
// analysis (process); the telemetry reads no engine before the drain. Every
// process call also counts into delivered, which the drain waits on.
type liveNet struct {
	engines   []*nids.Engine
	mu        []sync.Mutex // per node, guards engines[j]
	delivered delivery
	servers   []*shim.Server
	tunnels   map[[2]int]*shim.Tunnel
	pend      map[[2]int][]packet.Packet
}

// tunnelBatchCap is the packet count per SendBatch flush in live mode.
const tunnelBatchCap = 64

// startLive starts one tunnel server per engine. On error it closes the
// servers it had started.
func startLive(engines []*nids.Engine) (*liveNet, error) {
	l := &liveNet{
		engines:   engines,
		mu:        make([]sync.Mutex, len(engines)),
		delivered: newDelivery(),
		tunnels:   make(map[[2]int]*shim.Tunnel),
		pend:      make(map[[2]int][]packet.Packet),
	}
	for j := range engines {
		j := j
		srv, err := shim.Serve("127.0.0.1:0", func(p packet.Packet) { l.process(j, p) })
		if err != nil {
			l.close()
			return nil, fmt.Errorf("emulation: tunnel server for node %d: %w", j, err)
		}
		l.servers = append(l.servers, srv)
	}
	return l, nil
}

// process applies p to node j's engine under the node's lock and counts
// the delivery.
func (l *liveNet) process(j int, p packet.Packet) {
	l.mu[j].Lock()
	l.engines[j].ProcessPacket(p)
	l.mu[j].Unlock()
	l.delivered.add()
}

// send queues p for replication from → to, flushing the pair's batch when
// it reaches tunnelBatchCap.
func (l *liveNet) send(from, to int, p packet.Packet) error {
	key := [2]int{from, to}
	l.pend[key] = append(l.pend[key], p)
	if len(l.pend[key]) >= tunnelBatchCap {
		return l.flushPair(key)
	}
	return nil
}

// flushPair sends one pair's queued packets as a single batch, dialing the
// tunnel on first use.
func (l *liveNet) flushPair(key [2]int) error {
	pkts := l.pend[key]
	if len(pkts) == 0 {
		return nil
	}
	t, ok := l.tunnels[key]
	if !ok {
		var err error
		t, err = shim.Dial(l.servers[key[1]].Addr())
		if err != nil {
			return err
		}
		l.tunnels[key] = t
	}
	err := t.SendBatch(pkts)
	l.pend[key] = pkts[:0]
	return err
}

// flush hands every pair's queued packets to its tunnel, which copies
// their bytes into its write buffer, so no queued packet still refers to
// a payload the caller may reuse.
func (l *liveNet) flush() error {
	for key := range l.pend {
		if err := l.flushPair(key); err != nil {
			return err
		}
	}
	return nil
}

// drain puts every queued batch on the wire and waits for the servers to
// hand the engines all of it: local packets analysed in place plus every
// packet the tunnels sent. Once drain returns nil no server touches an
// engine again, and every engine call is ordered before the caller's
// unlocked reads: each one precedes its count into delivered, and the
// drain returns only after observing the last count.
func (l *liveNet) drain(local uint64) error {
	if err := l.flush(); err != nil {
		return err
	}
	want := local
	for _, t := range l.tunnels {
		if err := t.Flush(); err != nil {
			return err
		}
		want += t.Sent()
	}
	return l.delivered.await(want, drainTimeout)
}

// close tears down the tunnels and servers.
func (l *liveNet) close() {
	for _, t := range l.tunnels {
		//lint:ignore errdiscard best-effort teardown of an in-memory emulation; nothing to do with a close error
		t.Close()
	}
	for _, s := range l.servers {
		//lint:ignore errdiscard best-effort teardown of an in-memory emulation; nothing to do with a close error
		s.Close()
	}
}

// drainTimeout bounds how long a live-mode drain waits for delivery.
const drainTimeout = 5 * time.Second

// delivery counts the packets handed to the engines and lets one waiter
// block, without polling, until a target count has arrived.
type delivery struct {
	got, want atomic.Uint64 // want is 0 until await sets it
	done      chan struct{} // closed by the add that brings got to want
}

func newDelivery() delivery { return delivery{done: make(chan struct{})} }

// add counts one delivered packet. got and want are sequentially
// consistent, so either the add that reaches want sees it and closes done,
// or await's own read of got (after it stored want) sees that add.
func (d *delivery) add() {
	if d.got.Add(1) == d.want.Load() {
		close(d.done)
	}
}

// await waits until want packets have been delivered, at most timeout. A
// run whose drain times out has incomplete stats, so it is an error —
// naming how far delivery got — never a result.
func (d *delivery) await(want uint64, timeout time.Duration) error {
	d.want.Store(want)
	if d.got.Load() >= want {
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-d.done:
		return nil
	case <-timer.C:
		return fmt.Errorf("emulation: live tunnel drain timed out after %v: engines received %d of %d packets",
			timeout, d.got.Load(), want)
	}
}

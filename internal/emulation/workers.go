package emulation

import (
	"sync"

	"nwids/internal/nids"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// Engine sharding. The emulation driver stays sequential — it owns the
// virtual clock, spans and dispatch decisions, which are cheap — and only
// the engine work (payload scanning, the bulk of a run's CPU time) is
// fanned out. Each NIDS node is pinned to exactly one worker goroutine and
// packets reach it in driver enqueue order, so every engine observes the
// same packet sequence as the inline path and the run's output (alerts,
// counters, timelines) is byte-identical at any worker count.
const (
	// engineBatchCap is the packet count per batch handed to a worker.
	engineBatchCap = 128
	// spareBatchesPerNode is how many recycled batch buffers circulate per
	// node beyond the one the driver is filling. With two spares the driver
	// can keep a node's worker busy while filling the next batch; when all
	// are in flight the driver blocks on the worker (backpressure) instead
	// of allocating.
	spareBatchesPerNode = 2
)

// engineBatch is the unit handed to an engine worker: a run of packets for
// one node's engine.
type engineBatch struct {
	node int
	pkts []packet.Packet
}

// engineFeed routes ProcessPacket work either inline on the calling
// goroutine (workers <= 1) or to sharded worker goroutines fed with packet
// batches. Nodes are assigned to workers round-robin (node % workers); a
// single consumer per engine means no engine-level reordering ever occurs.
// Batch buffers are pooled through per-worker free lists, so the steady
// state allocates nothing.
//
// The driver-side methods (process, flush, drainAll, stop) must be
// called from one goroutine.
type engineFeed struct {
	engines []*nids.Engine
	mu      []sync.Mutex

	workers int                // 0 = inline
	queues  []chan engineBatch // per worker, consumed FIFO
	free    []chan []packet.Packet
	pend    [][]packet.Packet // per node, driver-owned fill buffer
	open    []sync.WaitGroup  // per node, batches handed off but not applied
	wg      sync.WaitGroup
}

// newEngineFeed builds a feed over the run's engines. workers <= 1 keeps
// the inline reference path; larger values start min(workers, nodes)
// worker goroutines. mu guards each engine against concurrent access from
// live-mode tunnel servers and telemetry reads.
func newEngineFeed(engines []*nids.Engine, mu []sync.Mutex, workers int) *engineFeed {
	f := &engineFeed{engines: engines, mu: mu}
	n := len(engines)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return f
	}
	f.workers = workers
	f.queues = make([]chan engineBatch, workers)
	f.free = make([]chan []packet.Packet, workers)
	f.pend = make([][]packet.Packet, n)
	f.open = make([]sync.WaitGroup, n)
	owned := make([]int, workers)
	for node := 0; node < n; node++ {
		owned[node%workers]++
		f.pend[node] = make([]packet.Packet, 0, engineBatchCap)
	}
	for w := 0; w < workers; w++ {
		// Buffer accounting: each owned node has one driver fill buffer
		// plus spareBatchesPerNode spares circulating through free, so the
		// free channel's capacity covers every buffer in existence and a
		// worker's recycle send can never block.
		f.queues[w] = make(chan engineBatch, spareBatchesPerNode*owned[w])
		f.free[w] = make(chan []packet.Packet, (spareBatchesPerNode+1)*owned[w])
		for i := 0; i < spareBatchesPerNode*owned[w]; i++ {
			f.free[w] <- make([]packet.Packet, 0, engineBatchCap)
		}
		f.wg.Add(1)
		go f.run(w)
	}
	return f
}

// run is one worker's loop: apply each batch to its node's engine in
// arrival order, then recycle the buffer.
func (f *engineFeed) run(w int) {
	defer f.wg.Done()
	for b := range f.queues[w] {
		f.mu[b.node].Lock()
		for i := range b.pkts {
			f.engines[b.node].ProcessPacket(b.pkts[i])
		}
		f.mu[b.node].Unlock()
		f.open[b.node].Done()
		f.free[w] <- b.pkts[:0]
	}
}

// process feeds one packet to node's engine: applied immediately when
// inline, otherwise appended to the node's pending batch.
func (f *engineFeed) process(node int, p packet.Packet) {
	if f.workers == 0 {
		f.mu[node].Lock()
		f.engines[node].ProcessPacket(p)
		f.mu[node].Unlock()
		return
	}
	f.pend[node] = append(f.pend[node], p)
	if len(f.pend[node]) == cap(f.pend[node]) {
		f.flush(node)
	}
}

// flush hands node's pending batch to its worker and takes a recycled fill
// buffer, blocking when all of the node's buffers are in flight.
func (f *engineFeed) flush(node int) {
	if f.workers == 0 || len(f.pend[node]) == 0 {
		return
	}
	w := node % f.workers
	f.open[node].Add(1)
	f.queues[w] <- engineBatch{node: node, pkts: f.pend[node]}
	f.pend[node] = <-f.free[w]
}

// drainAll blocks until all enqueued packets on all nodes are applied. The
// driver calls it before telemetry ticks and final stats so sampled
// counters match the inline path's exactly.
func (f *engineFeed) drainAll() {
	if f.workers == 0 {
		return
	}
	for node := range f.pend {
		f.flush(node)
	}
	for node := range f.open {
		f.open[node].Wait()
	}
}

// stop drains outstanding work and terminates the workers. Idempotent;
// after stop the feed reverts to inline mode.
func (f *engineFeed) stop() {
	if f.workers == 0 {
		return
	}
	f.drainAll()
	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
	f.workers = 0
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

// tunnelBatchCap is the packet count per SendBatch flush in live mode.
const tunnelBatchCap = 64

// tunnelBatcher accumulates live-mode replication per (replicator, mirror)
// pair and pushes it through Tunnel.SendBatch, paying the tunnel lock and
// writer overhead per batch instead of per packet. Tunnels are dialed
// lazily at first flush, as before.
type tunnelBatcher struct {
	servers []*shim.Server
	tunnels map[[2]int]*shim.Tunnel
	pend    map[[2]int][]packet.Packet
}

func newTunnelBatcher(servers []*shim.Server, tunnels map[[2]int]*shim.Tunnel) *tunnelBatcher {
	return &tunnelBatcher{servers: servers, tunnels: tunnels, pend: make(map[[2]int][]packet.Packet)}
}

// send queues p for replication from → to, flushing the pair's batch when
// it reaches tunnelBatchCap.
func (tb *tunnelBatcher) send(from, to int, p packet.Packet) error {
	key := [2]int{from, to}
	tb.pend[key] = append(tb.pend[key], p)
	if len(tb.pend[key]) >= tunnelBatchCap {
		return tb.flushPair(key)
	}
	return nil
}

// flushPair sends one pair's queued packets as a single batch, dialing the
// tunnel on first use.
func (tb *tunnelBatcher) flushPair(key [2]int) error {
	pkts := tb.pend[key]
	if len(pkts) == 0 {
		return nil
	}
	t, ok := tb.tunnels[key]
	if !ok {
		var err error
		t, err = shim.Dial(tb.servers[key[1]].Addr())
		if err != nil {
			return err
		}
		tb.tunnels[key] = t
	}
	err := t.SendBatch(pkts)
	tb.pend[key] = pkts[:0]
	return err
}

// flushAll sends every queued batch and flushes the tunnels' buffered
// writers, so all replicated packets are on the wire.
func (tb *tunnelBatcher) flushAll() error {
	for key := range tb.pend {
		if err := tb.flushPair(key); err != nil {
			return err
		}
	}
	for _, t := range tb.tunnels {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

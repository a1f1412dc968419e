package emulation

import (
	"sync"
	"sync/atomic"

	"nwids/internal/packet"
)

// This file is the one session source of the drivers: a producer goroutine
// that owns the trace generator and streams the trace in batches, so no
// driver holds a whole trace.

// Pipeline shape of Run and RunDrift: the producer sends phase-aligned
// batches of at most streamBatchSessions sessions, and each of its channels
// buffers streamBatchDepth batches. A batch amortises one channel handoff
// over 64 sessions; the depth lets generation run a few batches ahead while
// a consumer pauses (a drift re-solve, a telemetry tick), and bounds the
// sessions in flight per channel to 256 (≈ 400 KB at the default
// 6 × 256 B, ≈ 2 MB at 6 × 1400 B).
const (
	streamBatchSessions = 64
	streamBatchDepth    = 4
)

// sessionBatch is a run of consecutive sessions of one phase; last marks
// the phase's final batch, which may be empty.
type sessionBatch struct {
	sessions []packet.Session
	last     bool
}

// streamPhases is the one session producer of Run and RunDrift. It
// generates each phase's sessions in trace order and sends every batch to
// each of outs in turn, and closes them all when done or as soon as quit
// closes. A sent batch is never touched again, so its receivers may read
// it freely.
func streamPhases(gen *packet.Generator, counts [][][]int, quit <-chan struct{}, outs ...chan<- sessionBatch) {
	defer func() {
		for _, ch := range outs {
			close(ch)
		}
	}()
	batch := make([]packet.Session, 0, streamBatchSessions)
	send := func(last bool) bool {
		b := sessionBatch{sessions: batch, last: last}
		for _, ch := range outs {
			select {
			case ch <- b:
			case <-quit:
				return false
			}
		}
		batch = make([]packet.Session, 0, streamBatchSessions)
		return true
	}
	for _, c := range counts {
		ok := true
		gen.StreamMatrix(c, func(s packet.Session) bool {
			batch = append(batch, s)
			if len(batch) == streamBatchSessions {
				ok = send(false)
			}
			return ok
		})
		if !ok || !send(true) {
			return
		}
	}
}

// pipelineBodies counts the pipeline goroutine bodies started by spawn that
// have not yet returned. Only tests read it: once a driver has returned it
// must be zero, provided no other run is in flight.
var pipelineBodies atomic.Int64

// spawn runs body on a new goroutine that wg tracks. The body is counted
// out of pipelineBodies before wg.Done, so after wg.Wait every body wg
// tracked is already counted out.
func spawn(wg *sync.WaitGroup, body func()) {
	wg.Add(1)
	pipelineBodies.Add(1)
	go func() {
		defer wg.Done()
		defer pipelineBodies.Add(-1)
		body()
	}()
}

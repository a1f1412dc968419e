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
// a consumer pauses (a drift re-solve, a telemetry tick).
//
// Batches are recycled: a batch owns its sessions and one payload arena,
// and goes back on the producer's free list once every receiver has
// released it. No more than streamBatchDepth+2 batches exist at once (the
// slowest receiver's full channel, the batch in its hands, one being
// filled), and the free list holds that many, so after the first few
// batches the producer allocates nothing. The memory in flight is those
// batches' arenas: 384 sessions, ≈ 590 KB at the default 6 × 256 B,
// ≈ 3.2 MB at 6 × 1400 B.
const (
	streamBatchSessions = 64
	streamBatchDepth    = 4
)

// sessionBatch is a run of consecutive sessions of one phase; last marks
// the phase's final batch, which may be empty. Its sessions' payloads are
// slices of arena. A receiver reads a batch only until it calls release;
// the producer then rewrites it once every receiver has.
type sessionBatch struct {
	sessions []packet.Session
	arena    []byte
	last     bool
	refs     atomic.Int32 // receivers yet to release
	free     chan *sessionBatch
}

// takeBatch returns an empty batch for sessions of sessionBytes payload
// bytes: a released one from free if there is one, else a new one. It
// never blocks.
func takeBatch(free chan *sessionBatch, sessionBytes int) *sessionBatch {
	select {
	case b := <-free:
		b.sessions = b.sessions[:0]
		return b
	default:
		return &sessionBatch{
			sessions: make([]packet.Session, 0, streamBatchSessions),
			arena:    make([]byte, streamBatchSessions*sessionBytes),
			free:     free,
		}
	}
}

// release is a receiver's statement that it has finished reading b. The
// last of the receivers' releases puts b on the free list, unless the list
// is full; the atomic count orders every receiver's reads before the
// producer's next write.
func (b *sessionBatch) release() {
	if b.refs.Add(-1) == 0 {
		select {
		case b.free <- b:
		default:
		}
	}
}

// streamPhases is the one session producer of Run and RunDrift. It
// generates each phase's sessions in trace order, writing them into
// recycled batches, and sends every batch to each of outs in turn; each
// receiver must release every batch it gets once it has read it. It closes
// every channel when done or as soon as quit closes. It never waits for a
// release: with no batch free it allocates one, so a receiver that stops
// releasing costs memory, never progress.
func streamPhases(gen *packet.Generator, counts [][][]int, quit <-chan struct{}, outs ...chan<- *sessionBatch) {
	defer func() {
		for _, ch := range outs {
			close(ch)
		}
	}()
	free := make(chan *sessionBatch, streamBatchDepth+2) // every batch that can be in flight
	size := gen.SessionBytes()
	var b *sessionBatch // the batch being filled; nil until a session or a send needs one
	send := func(last bool) bool {
		if b == nil {
			b = takeBatch(free, size)
		}
		b.last = last
		b.refs.Store(int32(len(outs)))
		for _, ch := range outs {
			select {
			case ch <- b:
			case <-quit:
				return false
			}
		}
		b = nil
		return true
	}
	for _, c := range counts {
		ok := true
		packet.StreamMatrix(c, func(src, dst int) bool {
			if b == nil {
				b = takeBatch(free, size)
			}
			i := len(b.sessions)
			b.sessions = b.sessions[:i+1]
			gen.SessionInto(&b.sessions[i], src, dst, b.arena[i*size:(i+1)*size])
			if i+1 == streamBatchSessions {
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

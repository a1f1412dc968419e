package emulation

import (
	"reflect"
	"sync"
	"testing"

	"nwids/internal/packet"
)

// TestStreamPhasesStopsOnQuit: a producer whose batches never come back
// keeps producing, a new batch each time rather than waiting on its free
// list; blocked on full channels it returns once quit closes, and closes
// every channel it was given.
func TestStreamPhasesStopsOnQuit(t *testing.T) {
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2, PayloadBytes: 16}, 1)
	counts := [][][]int{{{0, 5000}, {5000, 0}}}
	outs := []chan *sessionBatch{make(chan *sessionBatch, 1), make(chan *sessionBatch, 1)}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(gen, counts, quit, outs[0], outs[1]) })

	// More batches than the free list holds, none released: each is a
	// new one. With nobody receiving the producer then fills both buffers
	// and blocks.
	seen := map[*sessionBatch]bool{}
	for len(seen) < 3*(streamBatchDepth+2) {
		b := <-outs[0]
		if <-outs[1] != b || len(b.sessions) != streamBatchSessions {
			t.Fatalf("receivers got different batches, or %d sessions instead of %d", len(b.sessions), streamBatchSessions)
		}
		if seen[b] {
			t.Fatal("an unreleased batch was sent again")
		}
		seen[b] = true
	}
	close(quit)
	wg.Wait()
	if n := pipelineBodies.Load(); n != 0 {
		t.Errorf("%d pipeline bodies still running after the join", n)
	}
	for k, ch := range outs {
		got := 0
		for b := range ch { // ends only if the producer closed ch
			if b.last {
				t.Errorf("channel %d: the phase's last batch was sent after quit", k)
			}
			got++
		}
		if got > cap(ch) {
			t.Errorf("channel %d held %d batches, more than its capacity %d", k, got, cap(ch))
		}
	}
}

// TestBatchReturnsAfterEveryRelease: a batch sent to two receivers goes
// back on the free list at the second release, not the first. The trace
// is one short batch, so the producer has returned, and can take nothing
// from the free list, before either release.
func TestBatchReturnsAfterEveryRelease(t *testing.T) {
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2, PayloadBytes: 16}, 1)
	outs := []chan *sessionBatch{make(chan *sessionBatch, 1), make(chan *sessionBatch, 1)}
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(gen, [][][]int{{{0, 5}, {5, 0}}}, nil, outs[0], outs[1]) })
	wg.Wait()
	b0, b1 := <-outs[0], <-outs[1]
	if b0 != b1 || len(b0.sessions) != 10 || !b0.last {
		t.Fatalf("receivers got %p and %p with %d sessions (last %v); want one last batch of 10",
			b0, b1, len(b0.sessions), b0.last)
	}
	b0.release()
	if n := len(b0.free); n != 0 {
		t.Fatalf("free list holds %d batches after one of two releases", n)
	}
	b1.release()
	if n := len(b0.free); n != 1 || <-b0.free != b0 {
		t.Fatalf("free list holds %d batches after both releases, want the released one", n)
	}
}

// TestStreamPhasesReusesReleasedBatches: a receiver that releases each
// batch after reading it gets the sessions a fresh generator makes, from
// no more distinct batches than can be in flight at once, so released
// arenas are rewritten rather than new ones allocated.
func TestStreamPhasesReusesReleasedBatches(t *testing.T) {
	cfg := packet.GeneratorConfig{PacketsPerSession: 3, PayloadBytes: 40, MaliciousFraction: 0.3,
		Signatures: [][]byte{[]byte("attack-one"), []byte("exploit")}}
	counts := [][][]int{{{3, 700}, {600, 2}}, {{0, 1}, {0, 0}}}
	want := packet.NewGenerator(cfg, 6)
	out := make(chan *sessionBatch, streamBatchDepth)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(packet.NewGenerator(cfg, 6), counts, quit, out) })
	defer func() {
		close(quit)
		wg.Wait()
	}()

	arenas := map[*byte]bool{}
	batches, i := 0, 0
	var order [][2]int
	for _, c := range counts {
		packet.StreamMatrix(c, func(src, dst int) bool {
			order = append(order, [2]int{src, dst})
			return true
		})
	}
	for b := range out {
		batches++
		arenas[&b.arena[0]] = true
		for k := range b.sessions {
			s := &b.sessions[k]
			if i >= len(order) || !reflect.DeepEqual(*s, want.Session(order[i][0], order[i][1])) {
				t.Fatalf("session %d differs from the one a fresh generator makes", i)
			}
			for j, p := range s.Packets {
				if &p.Payload[0] != &b.arena[(3*k+j)*40] {
					t.Fatalf("session %d packet %d: payload is not at its place in the batch arena", i, j)
				}
			}
			i++
		}
		b.release()
	}
	if i != len(order) {
		t.Fatalf("received %d sessions, want %d", i, len(order))
	}
	if batches < 3*(streamBatchDepth+2) || len(arenas) > streamBatchDepth+2 {
		t.Fatalf("%d batches used %d arenas; want at most %d", batches, len(arenas), streamBatchDepth+2)
	}
}

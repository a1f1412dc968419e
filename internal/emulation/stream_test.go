package emulation

import (
	"sync"
	"testing"

	"nwids/internal/packet"
)

// TestStreamPhasesStopsOnQuit: a producer blocked on full channels returns
// once quit closes, and closes every channel it was given.
func TestStreamPhasesStopsOnQuit(t *testing.T) {
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2, PayloadBytes: 16}, 1)
	counts := [][][]int{{{0, 5000}, {5000, 0}}}
	outs := []chan sessionBatch{make(chan sessionBatch, 1), make(chan sessionBatch, 1)}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(gen, counts, quit, outs[0], outs[1]) })

	// One batch from each channel shows the producer is running; with
	// nobody receiving it then fills both buffers and blocks.
	for _, ch := range outs {
		if b := <-ch; len(b.sessions) != streamBatchSessions {
			t.Fatalf("first batch has %d sessions, want %d", len(b.sessions), streamBatchSessions)
		}
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

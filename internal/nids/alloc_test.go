package nids

import (
	"bytes"
	"testing"

	"nwids/internal/packet"
)

// Alloc-regression tests for the engine's //nwids:hotpath entry points:
// once warm (flow table sized, match buffer grown, scan sets populated)
// the steady state must not allocate, and ResetEpoch must roll an epoch
// over by clearing those structures in place, not by reallocating them.

// benignWorkload returns a deterministic batch of benign sessions (no
// planted signatures, so the alert backlog stays empty and every
// allocation observed is hot-path overhead, not alert growth).
func benignWorkload(n int) []packet.Session {
	gen := packet.NewGenerator(packet.GeneratorConfig{MaliciousFraction: -1}, 31)
	sessions := make([]packet.Session, n)
	for i := range sessions {
		sessions[i] = gen.Session(i%4, (i+1)%4)
	}
	return sessions
}

func TestProcessPacketSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(DefaultRules(), 100)
	sessions := benignWorkload(64)
	replay := func() {
		e.ResetEpoch()
		for _, s := range sessions {
			for _, p := range s.Packets {
				e.ProcessPacket(p)
			}
		}
	}
	replay() // warm: tables and buffers grow to workload size here
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("ProcessPacket steady state: %v allocs/run, want 0", allocs)
	}
}

func TestResetEpochAllocFree(t *testing.T) {
	e := NewEngine(DefaultRules(), 100)
	for _, s := range benignWorkload(64) {
		e.ProcessSession(s)
	}
	if allocs := testing.AllocsPerRun(10, e.ResetEpoch); allocs != 0 {
		t.Errorf("ResetEpoch: %v allocs/run, want 0", allocs)
	}
}

func TestResetEpochReusesFlowCapacity(t *testing.T) {
	e := NewEngine(DefaultRules(), 100)
	sessions := benignWorkload(64)
	for _, s := range sessions {
		e.ProcessSession(s)
	}
	capBefore := len(e.flows.slots)
	e.ResetEpoch()
	if e.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows after reset = %d, want 0", e.ActiveFlows())
	}
	if got := len(e.flows.slots); got != capBefore {
		t.Fatalf("flow table capacity changed across reset: %d -> %d (must be cleared in place)", capBefore, got)
	}
	// The same workload must fit back into the retained capacity.
	if allocs := testing.AllocsPerRun(1, func() {
		for _, s := range sessions {
			for _, p := range s.Packets {
				e.ProcessPacket(p)
			}
		}
	}); allocs != 0 {
		t.Errorf("replay into reset table: %v allocs/run, want 0", allocs)
	}
}

func TestScanStreamIntoAllocFree(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("attack"), []byte("tac"), []byte("ck")})
	// A sub-threshold payload (single lane) and a 1400 B one whose only
	// matches lie in lane 2, so the interleaved loop, its early stop and the
	// per-lane finish all run.
	long := bytes.Repeat([]byte{'.'}, 1400)
	copy(long[800:], "attack")
	for _, data := range [][]byte{[]byte("one attack"), long} {
		if lanes := len(data) >= m.laneMin(); lanes != (len(data) == 1400) {
			t.Fatalf("%d B payload: lane kernel = %v", len(data), lanes)
		}
		buf := make([]Match, 0, 8)
		scan := func() {
			_, buf = m.ScanStreamInto(0, data, buf[:0])
		}
		scan() // warm buf to the match count
		if len(buf) != 3 {
			t.Fatalf("%d B payload: %d matches, want 3", len(data), len(buf))
		}
		if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
			t.Errorf("ScanStreamInto on %d B: %v allocs/run, want 0", len(data), allocs)
		}
	}
}

func TestScanDetectorSteadyStateAllocFree(t *testing.T) {
	d := NewScanDetector(100)
	for i := uint32(0); i < 512; i++ {
		d.Observe(i%16, 1000+i)
	}
	// Re-observing known pairs is the steady state on a warm detector.
	if allocs := testing.AllocsPerRun(10, func() {
		for i := uint32(0); i < 512; i++ {
			d.Observe(i%16, 1000+i)
		}
	}); allocs != 0 {
		t.Errorf("ScanDetector.Observe steady state: %v allocs/run, want 0", allocs)
	}
}

package obs

import (
	"sync"
	"time"
)

// Clock is a time source. The tracer stamps spans through one (NewTracer),
// and the emulation advances a VirtualClock one tick per unit of simulated
// work and stamps its series samples from it, so every span and sample in
// an emulation artifact is a pure function of the workload. Real binaries
// use Wall.
type Clock interface {
	// Now returns the current time of this clock.
	Now() time.Time
}

// Wall is the real-time clock: what Timer spans measure, and the tracer's
// clock when NewTracer is given nil.
var Wall Clock = wallClock{}

type wallClock struct{}

// Now returns the wall-clock time. This is the single sanctioned wall-time
// read in the telemetry plane; the emulation's byte pins on its virtual-clock
// timelines and traces fail if another one stamps them.
func (wallClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced Clock for deterministic telemetry:
// it only moves when Advance is called, so timestamps recorded against it
// are byte-identical run to run. NewVirtualClock picks its origin.
type VirtualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVirtualClock returns a virtual clock starting at origin.
func NewVirtualClock(origin time.Time) *VirtualClock {
	return &VirtualClock{t: origin}
}

// Now returns the clock's current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d (or backward for negative d) and
// returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

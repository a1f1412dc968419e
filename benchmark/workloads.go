package main

import (
	"math"
	"math/rand"

	"nwids/internal/core"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// stage is one of the four measurements every run goes through.
type stage int

const (
	install  stage = iota // cold scenario → LP → hash ranges → compiled shims
	reconfig              // warm Propose + Confirm through a fleet of shims
	packets               // emulation.Run, the bare packet path, heap per flow
	drift                 // emulation.RunDrift
)

// A workload is one set of inputs for the four stages. Every workload
// reports every metric; what differs is which stage runs at full size — its
// home, where the workload's inputs stress one layer and which gets most of
// the measuring time — and which run on the small companion inputs.
// BENCHMARK.json and README.md say why each workload exists.
type workload struct {
	Name string
	Home stage

	InstallTopos      []string // solved cold and compiled into shims ...
	InstallDraws      int      // ... each for this many draws of its matrix
	CtlTopo           string   // the controller's topology
	Sessions, Payload int      // the packet stage's trace
	DriftSessions     int      // per phase of DriftScenario("flash")
}

// pktTopo is the topology of the packet and drift stages, and the one every
// stage falls back to in a smoke run.
const pktTopo = "Internet2"

var (
	// ctlRepl is the replication LP the control-plane stages solve.
	ctlRepl = core.ReplicationConfig{Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10}
	// pktRepl is the assignment the legacy pps rig used (BENCH_97f9ce0), so
	// packet numbers line up with it.
	pktRepl = core.ReplicationConfig{Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 8}
)

// companionShare is the share of the measuring time a stage gets where it
// is not the home; the home stage gets what the other three leave.
var companionShare = [...]float64{install: 0.04, reconfig: 0.07, packets: 0.10, drift: 0.07}

func (w workload) share(s stage) float64 {
	if s != w.Home {
		return companionShare[s]
	}
	rest := 1.0
	for other, c := range companionShare {
		if stage(other) != s {
			rest -= c
		}
	}
	return rest
}

// companion is a workload with every stage at companion size: big enough
// for a steady median in a second or so, small enough that three of them
// fit beside a home stage. The install set is two topologies under four
// matrix draws each because the pivot count of one small LP swings by a
// quarter from one matrix to the next, and the controller runs on Geant
// because a p95 over 1.5 ms Internet2 reconfigurations is mostly
// garbage-collector jitter.
func companion(name string, home stage) workload {
	return workload{
		Name: name, Home: home,
		InstallTopos: []string{"Internet2", "Geant"}, InstallDraws: 4,
		CtlTopo:  "Geant",
		Sessions: 5000, Payload: 256,
		DriftSessions: 1000,
	}
}

// workloads lists the five workloads; later issues cite these names.
func workloads() []workload {
	cold := companion("ctl-cold", install)
	cold.InstallTopos, cold.InstallDraws = []string{"Geant", "TiNet", "Telstra", "Sprint"}, 1

	warm := companion("ctl-warm", reconfig)
	warm.CtlTopo = "Telstra"

	small := companion("pkt-small", packets)
	small.Sessions, small.Payload = 100000, 6 // minimum-size frames

	large := companion("pkt-large", packets)
	large.Sessions, large.Payload = 15000, 1400 // 126 MB of payload

	flash := companion("drift", drift)
	flash.DriftSessions = 8000

	return []workload{cold, warm, small, large, flash}
}

// scaled shrinks a workload for smoke runs: session counts scale, and below
// a tenth every topology becomes Internet2 so no multi-second LP runs.
func (w workload) scaled(scale float64) workload {
	if scale >= 1 {
		return w
	}
	shrink := func(n, floor int) int {
		return max(floor, int(math.Round(float64(n)*scale)))
	}
	w.Sessions = shrink(w.Sessions, 200)
	w.DriftSessions = shrink(w.DriftSessions, 300)
	if scale < 0.1 {
		w.InstallTopos, w.CtlTopo = []string{pktTopo}, pktTopo
	}
	return w
}

// baseMatrices are the traffic matrices the install and packet stages
// start from: the gravity model, and for every seed but 1 draws of 10 %
// log-normal variability around it, so seed 1 reproduces the objectives in
// expected.json and the other seeds give inputs no solver can have been
// tuned to.
func baseMatrices(g *topology.Graph, seed int64, n int) []*traffic.Matrix {
	tm := traffic.GravityDefault(g)
	if seed != 1 {
		return traffic.VariabilityModel{Sigma: 0.1}.Generate(rand.New(rand.NewSource(seed)), tm, n)
	}
	out := make([]*traffic.Matrix, n)
	for i := range out {
		out[i] = tm
	}
	return out
}

// hashSeed maps the run seed onto the shim hash seed; 0 would silently
// become 1 inside emulation.Run and split the two packet paths' hashes.
func hashSeed(seed int64) uint32 {
	if h := uint32(seed); h != 0 {
		return h
	}
	return 1
}

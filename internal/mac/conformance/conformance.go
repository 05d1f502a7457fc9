// Package conformance is the shared MAC test harness every registered
// arm must pass. It lays out small hand-crafted topologies (a clean
// link, an exposed pair, a hidden pair, and a carrier-sense-protective
// pair directly from loss matrices; a clean link and an exposed pair
// over real geometry with every node roaming) as bare topo.Testbeds
// with their flows, and runs each one under an arm through
// experiments.NewFlowSim — the wiring every figure runs — so what the
// suite certifies holds for the figures too. The conformance suite
// drives each arm through steady-state allocation gates, determinism
// and worker-equivalence checks, backlog conservation under Poisson
// arrivals, and topology sanity bounds (RTS/CTS rescuing hidden
// terminals, carrier-sense thresholds trading exposed concurrency
// against hidden-style collisions).
package conformance

import (
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Topology is one fixture layout: what a bare topo.Testbed holds (node
// positions, roam bounds and a channel model), the flows under test,
// and for the mobile arenas the movement spec (the zero Spec is a static
// run). Every node is a flow endpoint.
type Topology struct {
	Name     string
	Pos      []geo.Point
	Bounds   geo.Rect
	Flows    []topo.Link
	Mobility mobility.Spec
	// model builds the channel for one run; only the mobile arenas'
	// shadowing depends on the seed.
	model func(seed uint64) radio.Model
}

// matrixTopology is a static fixture over an explicit loss matrix. With
// TxPower 10 dBm and zero fading, received signal strength on a path is
// 10 − lossDB. The matrices below place links at −55 dBm (clean
// decode), cross-interference either at −95 dBm (below the noise floor,
// harmless) or −45 dBm (10 dB over the link signal, so overlaps
// corrupt), and sender↔sender coupling at −91 dBm: 3 dB under the
// −92 dBm preamble sensitivity, so the coupled sender can never lock
// onto (and be captured by) the other's frames — whether it defers is
// decided purely by the energy threshold, i.e. by which cs@<dBm> arm
// is running. A cs@-95 station senses −91 dBm and serialises; a
// cs@-85 station is blind to it and transmits concurrently. Positions
// are meaningless under a matrix and stay at the origin.
func matrixTopology(name string, lossDB [][]float64, flows []topo.Link) Topology {
	return Topology{
		Name:  name,
		Pos:   make([]geo.Point, len(lossDB)),
		Flows: flows,
		model: func(uint64) radio.Model { return &radio.Matrix{LossDB: lossDB} },
	}
}

// CleanLink is a single isolated flow 0→1: the fixture for allocation
// gates, determinism and conservation checks, where nothing is lost on
// air.
func CleanLink() Topology {
	return matrixTopology("clean", [][]float64{
		{0, 65},
		{65, 0},
	}, []topo.Link{{Src: 0, Dst: 1}})
}

// ExposedPair is the paper's exposed-terminal geometry: senders 0 and 2
// register −91 dBm at each other, but each signal is harmless (−95 dBm)
// at the other receiver. A sensitive carrier-sense threshold (cs@-95)
// serialises the two flows needlessly; concurrency is free.
func ExposedPair() Topology {
	return matrixTopology("exposed", [][]float64{
		{0, 65, 101, 105},
		{65, 0, 105, 105},
		{101, 105, 0, 65},
		{105, 105, 65, 0},
	}, []topo.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
}

// HiddenPair is the hidden-terminal geometry: senders 0 and 2 cannot
// hear each other (−105 dBm), yet each lands at −45 dBm on the other's
// receiver, so concurrent transmissions collide. Carrier sense cannot
// help; RTS/CTS can, because each receiver's CTS reaches the other
// sender over the same strong cross path.
func HiddenPair() Topology {
	return matrixTopology("hidden", [][]float64{
		{0, 65, 115, 55},
		{65, 0, 55, 105},
		{115, 55, 0, 65},
		{55, 105, 65, 0},
	}, []topo.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
}

// ProtectedPair is the geometry where carrier sense is load-bearing,
// asymmetrically: sender 2's signal lands at −45 dBm on receiver 1, so
// concurrent transmissions destroy flow 0→1, while flow 2→3 never sees
// interference (and, via the one asymmetric path, sender 2 never hears
// receiver 1's ACKs either — energy sensing of sender 0's −91 dBm
// signal is its only protection). A sensitive threshold (cs@-95)
// serialises the senders and the victim flow gets its fair share; a
// blind one (cs@-85) lets sender 2 transmit straight through flow
// 0→1's receptions and starve it.
func ProtectedPair() Topology {
	return matrixTopology("protected", [][]float64{
		{0, 65, 101, 105},
		{65, 0, 105, 105},
		{101, 55, 0, 65},
		{105, 105, 65, 0},
	}, []topo.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
}

// mobileModel is the mobile arenas' channel. The matrix fixtures carry
// meaningless positions, so a moving-node suite needs real geometry:
// log-distance with mild shadowing, so the mobility.Channel's per-epoch
// re-draws get exercised whenever the spec sets a decorrelation
// distance.
func mobileModel(seed uint64) radio.Model {
	return &radio.LogDistance{
		RefLossDB:     50,
		Exponent:      3.0,
		ShadowSigmaDB: 3,
		Seed:          seed ^ 0x40b11e,
	}
}

// MobileCleanLink is a single flow over a 10 m link, both endpoints
// wandering a 5 m roam disk — the link stays comfortably decodable at
// every reachable geometry, so backlog accounting is meaningful.
func MobileCleanLink(spec mobility.Spec) Topology {
	spec.RangeM = 5
	return Topology{
		Name:   "mobile-clean",
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 40},
		Pos: []geo.Point{
			{X: 25, Y: 20},
			{X: 35, Y: 20},
		},
		Flows:    []topo.Link{{Src: 0, Dst: 1}},
		Mobility: spec,
		model:    mobileModel,
	}
}

// MobileExposedPair is two short parallel flows far enough apart that
// their receivers are safe but close enough that the senders interact
// through carrier sense — the exposed geometry, now time-varying as all
// four nodes roam.
func MobileExposedPair(spec mobility.Spec) Topology {
	spec.RangeM = 6
	return Topology{
		Name:   "mobile-exposed",
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 60},
		Pos: []geo.Point{
			{X: 40, Y: 20},
			{X: 32, Y: 20},
			{X: 70, Y: 40},
			{X: 78, Y: 40},
		},
		Flows:    []topo.Link{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}},
		Mobility: spec,
		model:    mobileModel,
	}
}

// NewSim builds the topology under armName through experiments.NewFlowSim
// over a bare testbed (no link measurements, which FlowSim never reads)
// at 6 Mb/s, with each flow's meter measuring [warmup, dur] and the
// given workload on every flow (the zero Spec saturates the senders).
func NewSim(armName string, tp Topology, seed uint64, warmup, dur sim.Time, tr traffic.Spec) *experiments.FlowSim {
	tb := &topo.Testbed{N: len(tp.Pos), Bounds: tp.Bounds, Pos: tp.Pos, Params: phy.DefaultParams(), Model: tp.model(seed)}
	fs, err := experiments.NewFlowSim(tb, experiments.FlowSimConfig{
		Arm:      experiments.Protocol(armName),
		Flows:    tp.Flows,
		Duration: dur,
		Warmup:   warmup,
		Rate:     phy.Rate6Mbps,
		Traffic:  tr,
		Mobility: tp.Mobility,
		Seed:     seed,
	})
	if err != nil {
		panic(err)
	}
	return fs
}

// RunSaturated is the one-call happy path: build with every sender
// backlogged, run to dur, and return per-flow goodputs in Mb/s.
func RunSaturated(armName string, tp Topology, seed uint64, warmup, dur sim.Time) []float64 {
	fs := NewSim(armName, tp, seed, warmup, dur, traffic.Spec{})
	fs.Run(dur)
	var out []float64
	for _, r := range fs.Results() {
		out = append(out, r.Mbps)
	}
	return out
}

// SumMbps totals a goodput slice.
func SumMbps(g []float64) float64 {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return s
}

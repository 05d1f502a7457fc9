// Package conformance is the shared MAC test harness every registered
// arm must pass. It builds small hand-crafted topologies (a clean link,
// an exposed pair, a hidden pair, and a carrier-sense-protective pair
// directly from loss matrices; a clean link and an exposed pair over
// real geometry with every node roaming), constructs stations through
// the internal/mac registry by name only, and exposes one Fixture the
// conformance suite drives each arm through: steady-state allocation
// gates, determinism and worker-equivalence checks, backlog
// conservation under Poisson arrivals, and topology sanity bounds
// (RTS/CTS rescuing hidden terminals, carrier-sense thresholds trading
// exposed concurrency against hidden-style collisions).
package conformance

import (
	"math"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"

	// The protocol packages register their arms from init.
	_ "repro/internal/core"
	_ "repro/internal/csma"
)

// Topology is one fixture layout: a channel model over node positions,
// the flows under test, and — for the mobile arenas — the roam bounds
// and movement spec (the zero Spec is a static run).
type Topology struct {
	Name     string
	Pos      []geo.Point
	Bounds   geo.Rect
	Flows    [][2]int // {src, dst} per flow
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
func matrixTopology(name string, lossDB [][]float64, flows [][2]int) Topology {
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
	}, [][2]int{{0, 1}})
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
	}, [][2]int{{0, 1}, {2, 3}})
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
	}, [][2]int{{0, 1}, {2, 3}})
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
	}, [][2]int{{0, 1}, {2, 3}})
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
		Flows:    [][2]int{{0, 1}},
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
		Flows:    [][2]int{{0, 1}, {2, 3}},
		Mobility: spec,
		model:    mobileModel,
	}
}

// Fixture is one built instance of a Topology under one arm: a
// scheduler, a medium, a station per node, a goodput meter per flow and,
// when the topology moves, its mobility manager (nil otherwise).
type Fixture struct {
	Topo    Topology
	Sched   *sim.Scheduler
	M       *medium.Medium
	Manager *mobility.Manager
	Nodes   []mac.Node     // indexed by medium node id
	Meters  []*stats.Meter // indexed by flow
}

// NewFixture builds the topology's medium, manager and one station per
// node through the registry. It is a construction site of its own
// because it attaches a station to every node, flows or not, over
// channel models no testbed carries. Seed derivation mirrors the
// experiment harness — the medium draws from stream 1, the manager from
// mobility.StreamLabel (started before any station exists) and node id
// from stream 1000+id — so a fixture run is bit-comparable with an
// experiments run of the same topology. Meters measure [warmup, dur].
func NewFixture(armName string, tp Topology, seed uint64, warmup, dur sim.Time) *Fixture {
	arm := mac.MustLookup(armName)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	model := tp.model(seed)
	var ch *mobility.Channel
	if tp.Mobility.Active() && tp.Mobility.DecorrM > 0 {
		ch = mobility.NewChannel(model, len(tp.Pos))
		model = ch
	}
	m := medium.New(sched, phy.DefaultParams(), model, tp.Pos, rng.Stream(1))
	f := &Fixture{Topo: tp, Sched: sched, M: m}
	if tp.Mobility.Active() {
		f.Manager = mobility.New(tp.Mobility, tp.Bounds, m, rng.Stream(mobility.StreamLabel), ch)
		f.Manager.Start()
	}
	f.Nodes = make([]mac.Node, len(tp.Pos))
	for id := range tp.Pos {
		f.Nodes[id] = arm.New(id, m, rng.Stream(uint64(1000+id)), mac.Options{Rate: phy.Rate6Mbps})
	}
	for _, fl := range tp.Flows {
		mt := &stats.Meter{Start: warmup, End: dur}
		f.Nodes[fl[1]].SetMeter(mt)
		f.Meters = append(f.Meters, mt)
	}
	return f
}

// Saturate makes every flow's sender fully backlogged.
func (f *Fixture) Saturate() {
	for _, fl := range f.Topo.Flows {
		f.Nodes[fl[0]].SetSaturated(fl[1])
	}
}

// Run advances the fixture's virtual clock to the absolute time until.
func (f *Fixture) Run(until sim.Time) { f.Sched.Run(until) }

// Goodputs returns each flow's measured goodput in Mb/s.
func (f *Fixture) Goodputs() []float64 {
	out := make([]float64, len(f.Meters))
	for i, m := range f.Meters {
		out[i] = m.Mbps()
	}
	return out
}

// RunSaturated is the one-call happy path: build, saturate, run, and
// return per-flow goodputs.
func RunSaturated(armName string, tp Topology, seed uint64, warmup, dur sim.Time) []float64 {
	f := NewFixture(armName, tp, seed, warmup, dur)
	f.Saturate()
	f.Run(dur)
	return f.Goodputs()
}

// SumMbps totals a goodput slice.
func SumMbps(g []float64) float64 {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return s
}

// PoissonArrivals pre-draws packetsPerSec exponential inter-arrival
// times on [0, horizon) from its own RNG stream — decoupled from the
// stations' randomness so the arrival pattern is identical across arms.
func PoissonArrivals(seed uint64, packetsPerSec float64, horizon sim.Time) []sim.Time {
	rng := sim.NewRNG(seed ^ 0xa441)
	var out []sim.Time
	t := sim.Time(0)
	for {
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := sim.Time(-math.Log(u) / packetsPerSec * float64(sim.Second))
		t += gap
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

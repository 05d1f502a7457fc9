package topo

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Scenario is a named large-scale node layout: positions plus the radio
// environment a medium needs. Unlike Testbed it carries no O(n²) link
// measurements, so generators scale to thousands of nodes; call
// Testbed() to run the §5.1 measurement pass when link selection is
// needed (that pass is quadratic, use it at sizes where you can afford
// it).
type Scenario struct {
	Name   string
	Bounds geo.Rect
	Pos    []geo.Point
	Params phy.Params
	Model  radio.Model

	// APs lists designated access-point node indices for layouts that
	// have them (ClusteredAPs); empty otherwise.
	APs []int

	// Traffic is the scenario's suggested workload: the arrival model a
	// driver should default to when the user does not pick one. The zero
	// value is the saturated (always-backlogged) model, so existing
	// scenarios behave exactly as before the traffic subsystem existed.
	// cmd/cmapsim consults it when its -traffic flag is left empty.
	Traffic traffic.Spec

	// Arms is the scenario's suggested MAC arm set: internal/mac registry
	// names a driver should default to when the user picks none. Empty
	// keeps the driver's own default. cmd/cmapsim runs the first entry
	// when its -arm flag is left untouched.
	Arms []string

	// Mobility is the scenario's suggested node-motion model, consulted
	// by drivers when the user's -mobility flag is left empty. The zero
	// value keeps the layout static, so every pre-mobility scenario
	// behaves exactly as before.
	Mobility mobility.Spec
}

// N returns the node count.
func (s *Scenario) N() int { return len(s.Pos) }

// Build constructs a sparse medium over the scenario on the given
// scheduler. Decode randomness comes from rng.
func (s *Scenario) Build(sched *sim.Scheduler, rng *sim.RNG) *medium.Medium {
	return medium.New(sched, s.Params, s.Model, s.Pos, rng)
}

// Testbed runs the isolation measurement pass over the scenario and
// returns a Testbed exposing the §5.1 link definitions and the Figure 11
// topology pickers on this layout. The pass costs O(n²) model
// evaluations plus O(n²) floats of RSS/PRR storage.
func (s *Scenario) Testbed() *Testbed {
	tb := &Testbed{
		N:      len(s.Pos),
		Bounds: s.Bounds,
		Pos:    append([]geo.Point(nil), s.Pos...),
		Params: s.Params,
		Model:  s.Model,
	}
	tb.measure()
	return tb
}

// GridCity generates a city of blocksX×blocksY square blocks of blockM
// metres with perBlock nodes scattered inside each block (buildings off
// the street grid). The radio environment is the outdoor urban model, so
// at realistic block sizes only a neighbourhood of blocks is audible —
// the regime where the sparse medium construction pays off.
func GridCity(blocksX, blocksY, perBlock int, blockM float64, seed uint64) *Scenario {
	rng := sim.NewRNG(seed).Stream(0xc179)
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: float64(blocksX) * blockM, MaxY: float64(blocksY) * blockM}
	pos := make([]geo.Point, 0, blocksX*blocksY*perBlock)
	// A street margin keeps nodes off block edges so blocks read as
	// clusters rather than a uniform wash.
	margin := 0.1 * blockM
	for by := 0; by < blocksY; by++ {
		for bx := 0; bx < blocksX; bx++ {
			x0 := float64(bx)*blockM + margin
			y0 := float64(by)*blockM + margin
			span := blockM - 2*margin
			for k := 0; k < perBlock; k++ {
				pos = append(pos, geo.Point{
					X: x0 + rng.Float64()*span,
					Y: y0 + rng.Float64()*span,
				})
			}
		}
	}
	return &Scenario{
		Name:   fmt.Sprintf("gridcity-%dx%dx%d", blocksX, blocksY, perBlock),
		Bounds: bounds,
		Pos:    pos,
		Params: phy.DefaultParams(),
		Model:  radio.DefaultUrban5GHz(seed),
		// Dense blocks separated by streets are exposed-terminal country:
		// the conflict-map arm is the interesting comparison to stock DCF.
		Arms: []string{"cmap", "csma"},
	}
}

// ClusteredAPs generates cells access-point cells dropped uniformly in a
// square of sideM metres: each cell is one AP with clients client nodes
// uniform in a disk of cellRadiusM around it. Node order is AP first,
// then its clients, cell by cell; Scenario.APs lists the AP indices.
func ClusteredAPs(cells, clients int, sideM, cellRadiusM float64, seed uint64) *Scenario {
	rng := sim.NewRNG(seed).Stream(0xa95)
	s := &Scenario{
		Name:   fmt.Sprintf("clusters-%dx%d", cells, clients),
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: sideM, MaxY: sideM},
		Params: phy.DefaultParams(),
		Model:  radio.DefaultIndoor5GHz(seed),
		// Infrastructure cells hide clients from each other behind the
		// AP, so stock DCF versus the RTS/CTS handshake is the natural
		// pairing here.
		Arms: []string{"csma", "rtscts"},
	}
	inset := math.Min(cellRadiusM, sideM/2)
	for c := 0; c < cells; c++ {
		center := geo.Point{
			X: inset + rng.Float64()*(sideM-2*inset),
			Y: inset + rng.Float64()*(sideM-2*inset),
		}
		s.APs = append(s.APs, len(s.Pos))
		s.Pos = append(s.Pos, center)
		for k := 0; k < clients; k++ {
			r := cellRadiusM * math.Sqrt(rng.Float64())
			th := 2 * math.Pi * rng.Float64()
			s.Pos = append(s.Pos, center.Add(r*math.Cos(th), r*math.Sin(th)))
		}
	}
	return s
}

// Highway generates a vehicular strip: lanes lanes of lengthM metres,
// laneGapM apart, with n vehicles scattered along them. Its suggested
// mobility is the vehicular lane-flow model at speedMps (drivers apply
// it when the user leaves -mobility empty), making it the stock mobile
// counterpart of the static layouts: geometry churns continuously as
// traffic streams past in both directions.
func Highway(n, lanes int, lengthM, laneGapM, speedMps float64, seed uint64) *Scenario {
	if lanes < 1 {
		lanes = 1
	}
	rng := sim.NewRNG(seed).Stream(0x416a)
	height := laneGapM * float64(lanes+1)
	s := &Scenario{
		Name:   fmt.Sprintf("highway-%dx%d", n, lanes),
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: lengthM, MaxY: height},
		Params: phy.DefaultParams(),
		Model:  radio.DefaultUrban5GHz(seed),
		// Streams of vehicles passing each other are exposed-terminal
		// country in motion: conflict maps versus plain carrier sense is
		// the comparison the layout exists for.
		Arms: []string{"cmap", "csma"},
		Mobility: mobility.Spec{
			Kind:     mobility.Vehicular,
			SpeedMps: speedMps,
			DecorrM:  10,
		},
	}
	for i := 0; i < n; i++ {
		lane := int(rng.Uint64() % uint64(lanes))
		s.Pos = append(s.Pos, geo.Point{
			X: rng.Float64() * lengthM,
			Y: laneGapM * float64(lane+1),
		})
	}
	return s
}

// UniformDisk generates n nodes uniform over a disk sized so the node
// density is densityPerKm2 nodes per square kilometre — the layout of
// the large-network CSMA literature. At fixed density the audible
// neighbourhood is constant, so medium construction and Transmit cost
// stay O(n·k) as n grows.
func UniformDisk(n int, densityPerKm2 float64, seed uint64) *Scenario {
	if densityPerKm2 <= 0 {
		densityPerKm2 = 1000
	}
	rng := sim.NewRNG(seed).Stream(0xd15c)
	radiusM := 1000 * math.Sqrt(float64(n)/densityPerKm2/math.Pi)
	s := &Scenario{
		Name:   fmt.Sprintf("disk-%d@%.0f", n, densityPerKm2),
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 2 * radiusM, MaxY: 2 * radiusM},
		Params: phy.DefaultParams(),
		Model:  radio.DefaultUrban5GHz(seed),
	}
	for i := 0; i < n; i++ {
		r := radiusM * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		s.Pos = append(s.Pos, geo.Point{
			X: radiusM + r*math.Cos(th),
			Y: radiusM + r*math.Sin(th),
		})
	}
	return s
}

// Package cmap is a Go implementation of CMAP (Conflict Maps), the
// reactive wireless link layer of "Harnessing Exposed Terminals in
// Wireless Networks" (Vutukuru, Jamieson, Balakrishnan — NSDI 2008),
// together with everything needed to run it: an 802.11a PHY/medium
// simulator with SINR-based reception and capture, the 802.11 DCF
// baseline the paper compares against, a calibrated 50-node indoor
// testbed generator, and the paper's full evaluation harness.
//
// The public API builds wireless networks and attaches stations:
//
//	nw := cmap.NewTestbedNetwork(50, 1)
//	tx := nw.AddCMAP(3)
//	rx := nw.AddCMAP(9)
//	rx.Measure(4*time.Second, 10*time.Second)
//	tx.Saturate(9)
//	nw.Run(10 * time.Second)
//	fmt.Printf("%.2f Mb/s\n", rx.GoodputMbps())
//
// Stations speak either CMAP (AddCMAP) or the 802.11 DCF baseline
// (AddDCF), with options to disable carrier sense or link ACKs, change
// bit-rate, or resize CMAP's virtual packets and send window — the knobs
// the paper's evaluation turns.
//
// The paper's full evaluation lives in internal/experiments; its trials
// fan out across a worker pool (internal/runner) with hierarchically
// derived seeds, so experiment results are bit-identical at every
// worker count. See README.md for the figure suite and the -parallel /
// -trials flags of cmd/cmapbench and cmd/cmapsim.
package cmap

import (
	"fmt"
	"time"

	"repro/internal/csma"
	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Broadcast addresses a transmission to every station in range.
const Broadcast = csma.BroadcastDst

// Point is a node position on the floor plan, in metres.
type Point struct{ X, Y float64 }

// Network is a simulated radio environment plus the stations attached to
// it. Create one with NewNetwork, NewTestbedNetwork or NewLossNetwork,
// attach stations, inject traffic, then Run.
type Network struct {
	sched    *sim.Scheduler
	med      *medium.Medium
	rng      *sim.RNG
	tb       *topo.Testbed
	stations map[int]*Station
}

// NewNetwork builds a network over explicit node positions using the
// calibrated indoor propagation model. seed drives both the channel's
// shadowing and all protocol randomness.
func NewNetwork(positions []Point, seed uint64) *Network {
	pts := make([]geo.Point, len(positions))
	for i, p := range positions {
		pts[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return newNetwork(&topo.Testbed{N: len(pts), Pos: pts, Params: phy.DefaultParams(), Model: radio.DefaultIndoor5GHz(seed)}, seed)
}

// NewTestbedNetwork generates the paper-calibrated n-node office testbed
// (§5.1) and builds a network over it. Testbed link measurements are
// available through Testbed.
func NewTestbedNetwork(n int, seed uint64) *Network {
	tb := topo.NewTestbed(n, seed)
	nw := newNetwork(tb, seed)
	nw.tb = tb
	return nw
}

// NewLossNetwork builds a network from an explicit pairwise path-loss
// matrix in dB — exact control over who hears whom, for controlled
// experiments (the Figure 1 style topologies).
func NewLossNetwork(lossDB [][]float64, seed uint64) *Network {
	n := len(lossDB)
	return newNetwork(&topo.Testbed{N: n, Pos: make([]geo.Point, n), Params: phy.DefaultParams(), Model: &radio.Matrix{LossDB: lossDB}}, seed)
}

// newNetwork builds tb's medium on a fresh scheduler, drawing decode
// randomness from stream 1 of the network seed.
func newNetwork(tb *topo.Testbed, seed uint64) *Network {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	return &Network{sched: sched, med: tb.Build(sched, rng.Stream(1)), rng: rng, stations: map[int]*Station{}}
}

// NodeCount returns the number of radio positions in the network.
func (nw *Network) NodeCount() int { return nw.med.NodeCount() }

// Testbed exposes the generated testbed's link measurements (nil for
// networks not built by NewTestbedNetwork).
func (nw *Network) Testbed() *topo.Testbed { return nw.tb }

// Run advances virtual time by d.
func (nw *Network) Run(d time.Duration) {
	nw.sched.Run(nw.sched.Now() + sim.Duration(d))
}

// Now returns the current virtual time.
func (nw *Network) Now() time.Duration { return time.Duration(nw.sched.Now()) }

// RxPowerDBm reports the received power of from's transmissions at to.
func (nw *Network) RxPowerDBm(from, to int) float64 { return nw.med.RxPowerDBm(from, to) }

// Rand derives a deterministic random stream from the network seed, for
// the testbed's topology-sampling helpers.
func (nw *Network) Rand(label uint64) *sim.RNG { return nw.rng.Stream(label) }

// Option configures a station at attach time. Options that do not apply
// to the station's protocol are ignored; out-of-range values panic with
// a *mac.SpecError.
type Option func(*stationConfig)

// stationConfig is a station's registry spec under construction: one
// slot per family key in canonical order ("" keeps the default), plus
// the cross-arm rate and payload.
type stationConfig struct {
	opt  mac.Options
	cmap [3]string // win=N, vpkt=N, pdq
	csma [2]string // nocs, noack
}

// WithRate selects the data bit-rate in Mb/s (6, 9, 12, 18, 24, 36, 48 or
// 54). Invalid values panic.
func WithRate(mbps float64) Option {
	return func(c *stationConfig) {
		for _, r := range phy.Rates() {
			if r.Mbps == mbps {
				c.opt.Rate = r.ID
				return
			}
		}
		panic(fmt.Sprintf("cmap: no 802.11a rate %v Mb/s", mbps))
	}
}

// WithPayload sets the application payload per packet in bytes (1 to
// 65535).
func WithPayload(bytes int) Option {
	return func(c *stationConfig) {
		if err := mac.CheckPayload(bytes); err != nil {
			panic(err)
		}
		c.opt.Payload = bytes
	}
}

// WithCarrierSense toggles physical carrier sense (DCF stations only).
func WithCarrierSense(on bool) Option {
	return func(c *stationConfig) { c.csma[0] = flag("nocs", !on) }
}

// WithLinkACKs toggles link-layer ACKs and retransmission (DCF stations
// only).
func WithLinkACKs(on bool) Option {
	return func(c *stationConfig) { c.csma[1] = flag("noack", !on) }
}

// WithVirtualPacket sets CMAP's data packets per virtual packet (§4.1,
// default 32).
func WithVirtualPacket(n int) Option {
	return func(c *stationConfig) { c.cmap[1] = fmt.Sprintf("vpkt=%d", n) }
}

// WithWindow sets CMAP's send window in virtual packets (§3.3, default 8).
func WithWindow(n int) Option {
	return func(c *stationConfig) { c.cmap[0] = fmt.Sprintf("win=%d", n) }
}

// WithPerDestQueues enables the §3.2 optimisation on a CMAP station:
// per-destination queues scheduled round-robin, so a conflicted
// destination does not head-of-line block the others. Send may then be
// called with multiple destinations.
func WithPerDestQueues() Option {
	return func(c *stationConfig) { c.cmap[2] = "pdq" }
}

// flag spells a spec flag that is set, or nothing.
func flag(key string, set bool) string {
	if set {
		return key
	}
	return ""
}

// Station is one attached node speaking either CMAP or 802.11 DCF,
// driven through the arm-independent mac.Node surface; a CMAP station's
// node is also a mac.Broadcaster, for the §3.6 targeted broadcast.
type Station struct {
	nw    *Network
	id    int
	node  mac.Node
	meter *stats.Meter
}

// attach checks that id is a free node of the network, applies opts
// over the evaluation defaults and builds the station that family's
// spec names through the registry.
func (nw *Network) attach(id int, family string, opts []Option) *Station {
	if id < 0 || id >= nw.med.NodeCount() {
		panic(fmt.Sprintf("cmap: node %d outside network of %d nodes", id, nw.med.NodeCount()))
	}
	if _, dup := nw.stations[id]; dup {
		panic(fmt.Sprintf("cmap: node %d already has a station", id))
	}
	c := stationConfig{opt: mac.Options{Rate: phy.Rate6Mbps}}
	for _, o := range opts {
		o(&c)
	}
	keys := c.csma[:]
	if family == "cmap" {
		keys = c.cmap[:]
	}
	spec := family
	for _, k := range keys {
		if k != "" {
			spec += ":" + k
		}
	}
	arm, err := mac.Lookup(spec)
	if err != nil {
		panic(err)
	}
	st := &Station{nw: nw, id: id, node: arm.New(id, nw.med, nw.rng.Stream(uint64(0xA000+id)), c.opt)}
	nw.stations[id] = st
	return st
}

// AddCMAP attaches a CMAP station to node id.
func (nw *Network) AddCMAP(id int, opts ...Option) *Station { return nw.attach(id, "cmap", opts) }

// AddDCF attaches an 802.11 DCF baseline station to node id.
func (nw *Network) AddDCF(id int, opts ...Option) *Station { return nw.attach(id, "csma", opts) }

// Station returns the station attached to id, or nil.
func (nw *Network) Station(id int) *Station { return nw.stations[id] }

// ID returns the node index this station occupies.
func (s *Station) ID() int { return s.id }

// Saturate makes the station a backlogged source towards dst (or
// Broadcast for a CMAP/DCF broadcast flow to everyone in range).
func (s *Station) Saturate(dst int) {
	if b, ok := s.node.(mac.Broadcaster); ok && dst == Broadcast {
		b.SetBroadcast(s.broadcastTargets(), true, 0)
		return
	}
	s.node.SetSaturated(dst)
}

// Send queues count packets towards dst. For a CMAP station already in
// broadcast mode (after BroadcastTo), Send(Broadcast, n) queues the next
// dissemination batch.
func (s *Station) Send(dst int, count int) {
	if b, ok := s.node.(mac.Broadcaster); ok && dst == Broadcast {
		b.EnqueueBroadcast(count)
		return
	}
	s.node.Enqueue(dst, count)
}

// BroadcastTo starts a CMAP broadcast flow towards the given targets
// (§3.6): count queued packets, or a saturated flow when saturated is
// true. DCF stations broadcast with Saturate(Broadcast)/Send(Broadcast,n).
func (s *Station) BroadcastTo(targets []int, saturated bool, count int) {
	b, ok := s.node.(mac.Broadcaster)
	if !ok {
		panic("cmap: BroadcastTo requires a CMAP station")
	}
	b.SetBroadcast(targets, saturated, count)
}

// broadcastTargets defaults to every other attached station.
func (s *Station) broadcastTargets() []int {
	var out []int
	for id := range s.nw.stations {
		if id != s.id {
			out = append(out, id)
		}
	}
	return out
}

// Measure arms the goodput meter over the virtual-time window
// [start, end] — the paper measures [40 s, 100 s] of 100-second runs.
func (s *Station) Measure(start, end time.Duration) {
	s.meter = &stats.Meter{Start: sim.Duration(start), End: sim.Duration(end)}
	s.node.SetMeter(s.meter)
}

// GoodputMbps returns the measured goodput; zero before Measure.
func (s *Station) GoodputMbps() float64 {
	if s.meter == nil {
		return 0
	}
	return s.meter.Mbps()
}

// OnDeliver registers a callback for every non-duplicate packet this
// station receives (used to chain forwarding, as in the §5.7 mesh).
func (s *Station) OnDeliver(fn func(src int, seq uint32, at time.Duration)) {
	s.node.SetOnDeliver(func(src int, seq uint32, now sim.Time) { fn(src, seq, time.Duration(now)) })
}

// Idle reports whether the station's sender has drained all queued and
// unacknowledged traffic (always false for saturated senders).
func (s *Station) Idle() bool { return s.node.Idle() }

// Stats is the one per-station counter view every protocol exposes,
// zero where a protocol has no such concept (DCF stations send no
// virtual packets and keep no conflict map).
type Stats = mac.Counters

// Stats snapshots the station's counters.
func (s *Station) Stats() Stats { return s.node.Counters() }

// Addr returns the station's link-layer address.
func (s *Station) Addr() frame.Addr { return frame.AddrFromID(s.id) }

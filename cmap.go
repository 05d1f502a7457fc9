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

	"repro/internal/core"
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
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	med := medium.New(sched, phy.DefaultParams(), radio.DefaultIndoor5GHz(seed), pts, rng.Stream(1))
	return &Network{sched: sched, med: med, rng: rng, stations: map[int]*Station{}}
}

// NewTestbedNetwork generates the paper-calibrated n-node office testbed
// (§5.1) and builds a network over it. Testbed link measurements are
// available through Testbed.
func NewTestbedNetwork(n int, seed uint64) *Network {
	tb := topo.NewTestbed(n, seed)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	return &Network{
		sched:    sched,
		med:      tb.Build(sched, rng.Stream(1)),
		rng:      rng,
		tb:       tb,
		stations: map[int]*Station{},
	}
}

// NewLossNetwork builds a network from an explicit pairwise path-loss
// matrix in dB — exact control over who hears whom, for controlled
// experiments (the Figure 1 style topologies).
func NewLossNetwork(lossDB [][]float64, seed uint64) *Network {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	med := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: lossDB},
		make([]geo.Point, len(lossDB)), rng.Stream(1))
	return &Network{sched: sched, med: med, rng: rng, stations: map[int]*Station{}}
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

// Option configures a station at attach time.
type Option func(*stationConfig)

type stationConfig struct {
	rate         phy.RateID
	payload      int
	carrierSense bool
	linkACKs     bool
	nvpkt        int
	nwindow      int
	perDest      bool
}

// WithRate selects the data bit-rate in Mb/s (6, 9, 12, 18, 24, 36, 48 or
// 54). Invalid values panic.
func WithRate(mbps float64) Option {
	return func(c *stationConfig) {
		for _, r := range phy.Rates() {
			if r.Mbps == mbps {
				c.rate = r.ID
				return
			}
		}
		panic(fmt.Sprintf("cmap: no 802.11a rate %v Mb/s", mbps))
	}
}

// WithPayload sets the application payload per packet in bytes.
func WithPayload(bytes int) Option {
	return func(c *stationConfig) { c.payload = bytes }
}

// WithCarrierSense toggles physical carrier sense (DCF stations only).
func WithCarrierSense(on bool) Option {
	return func(c *stationConfig) { c.carrierSense = on }
}

// WithLinkACKs toggles link-layer ACKs and retransmission (DCF stations
// only).
func WithLinkACKs(on bool) Option {
	return func(c *stationConfig) { c.linkACKs = on }
}

// WithVirtualPacket sets CMAP's data packets per virtual packet (§4.1,
// default 32).
func WithVirtualPacket(n int) Option {
	return func(c *stationConfig) { c.nvpkt = n }
}

// WithWindow sets CMAP's send window in virtual packets (§3.3, default 8).
func WithWindow(n int) Option {
	return func(c *stationConfig) { c.nwindow = n }
}

// WithPerDestQueues enables the §3.2 optimisation on a CMAP station:
// per-destination queues scheduled round-robin, so a conflicted
// destination does not head-of-line block the others. Send may then be
// called with multiple destinations.
func WithPerDestQueues() Option {
	return func(c *stationConfig) { c.perDest = true }
}

// Station is one attached node speaking either CMAP or 802.11 DCF,
// driven through the arm-independent mac.Node surface. cm is the same
// station as a CMAP node when it is one — needed only for the §3.6
// targeted broadcast, which has no DCF counterpart.
type Station struct {
	nw    *Network
	id    int
	node  mac.Node
	cm    *core.Node
	meter *stats.Meter
}

// configure checks that id is a free node of the network and applies
// opts over the evaluation defaults.
func (nw *Network) configure(id int, opts []Option) stationConfig {
	if id < 0 || id >= nw.med.NodeCount() {
		panic(fmt.Sprintf("cmap: node %d outside network of %d nodes", id, nw.med.NodeCount()))
	}
	if _, dup := nw.stations[id]; dup {
		panic(fmt.Sprintf("cmap: node %d already has a station", id))
	}
	c := stationConfig{rate: phy.Rate6Mbps, payload: 1400, carrierSense: true, linkACKs: true}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// AddCMAP attaches a CMAP station to node id.
func (nw *Network) AddCMAP(id int, opts ...Option) *Station {
	c := nw.configure(id, opts)
	cfg := core.DefaultConfig()
	cfg.Rate = c.rate
	cfg.PayloadBytes = c.payload
	if c.nvpkt > 0 {
		cfg.Nvpkt = c.nvpkt
	}
	if c.nwindow > 0 {
		cfg.Nwindow = c.nwindow
	}
	cfg.PerDestQueues = c.perDest
	cm := core.New(id, cfg, nw.med, nw.rng.Stream(uint64(0xA000+id)))
	st := &Station{nw: nw, id: id, node: cm, cm: cm}
	nw.stations[id] = st
	return st
}

// AddDCF attaches an 802.11 DCF baseline station to node id.
func (nw *Network) AddDCF(id int, opts ...Option) *Station {
	c := nw.configure(id, opts)
	cfg := csma.DefaultConfig()
	cfg.Rate = c.rate
	cfg.PayloadBytes = c.payload
	cfg.CarrierSense = c.carrierSense
	cfg.LinkACKs = c.linkACKs
	st := &Station{nw: nw, id: id, node: csma.New(id, cfg, nw.med, nw.rng.Stream(uint64(0xA000+id)))}
	nw.stations[id] = st
	return st
}

// Station returns the station attached to id, or nil.
func (nw *Network) Station(id int) *Station { return nw.stations[id] }

// ID returns the node index this station occupies.
func (s *Station) ID() int { return s.id }

// Saturate makes the station a backlogged source towards dst (or
// Broadcast for a CMAP/DCF broadcast flow to everyone in range).
func (s *Station) Saturate(dst int) {
	if s.cm != nil && dst == Broadcast {
		s.cm.SetBroadcast(s.broadcastTargets(), true, 0)
		return
	}
	s.node.SetSaturated(dst)
}

// Send queues count packets towards dst. For a CMAP station already in
// broadcast mode (after BroadcastTo), Send(Broadcast, n) queues the next
// dissemination batch.
func (s *Station) Send(dst int, count int) {
	if s.cm != nil && dst == Broadcast {
		s.cm.EnqueueBroadcast(count)
		return
	}
	s.node.Enqueue(dst, count)
}

// BroadcastTo starts a CMAP broadcast flow towards the given targets
// (§3.6): count queued packets, or a saturated flow when saturated is
// true. DCF stations broadcast with Saturate(Broadcast)/Send(Broadcast,n).
func (s *Station) BroadcastTo(targets []int, saturated bool, count int) {
	if s.cm == nil {
		panic("cmap: BroadcastTo requires a CMAP station")
	}
	s.cm.SetBroadcast(targets, saturated, count)
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

// Stats is the protocol-agnostic subset of station counters.
type Stats struct {
	Delivered  uint64 // non-duplicate packets received for this station
	Duplicates uint64
	// CMAP-only counters (zero on DCF stations).
	VirtualPacketsSent uint64
	Defers             uint64 // conflict-map deferrals
	DeferTableEntries  int
	InterfererEntries  int
}

// Stats snapshots the station's counters.
func (s *Station) Stats() Stats {
	c := s.node.Counters()
	return Stats{
		Delivered:          c.Delivered,
		Duplicates:         c.Duplicates,
		VirtualPacketsSent: c.VpktsSent,
		Defers:             c.Defers,
		DeferTableEntries:  int(c.DeferEntries),
		InterfererEntries:  int(c.InterfererEntries),
	}
}

// Addr returns the station's link-layer address.
func (s *Station) Addr() frame.Addr { return frame.AddrFromID(s.id) }

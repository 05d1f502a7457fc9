package analytic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/topo"
)

// Graph is a conflict graph over unicast flows. Vertices are flows;
// a symmetric sense edge joins two flows whose senders can hear each
// other (or which share a node and therefore time-share a radio), and a
// directed harm edge j→i records that j's concurrent transmission cuts
// flow i's reception ratio below the interferer threshold. The solver
// maps these onto per-arm defer and hidden-collision sets.
type Graph struct {
	// Flows records the node-level flow behind each vertex; nil for
	// synthetic graphs built with NewSynthetic.
	Flows []topo.Link
	// IsoPRR[i] is flow i's packet reception ratio in isolation — the
	// §5.1 "transmitting in isolation" measurement, computed from the
	// medium's stored gain.
	IsoPRR []float64
	// Rates[i] is flow i's data bit-rate.
	Rates []phy.Rate

	sense [][]int // symmetric adjacency, each list sorted ascending
	harm  [][]int // harm[i] lists interferers of flow i, sorted ascending

	// inter[i][j] holds the conditional reception ratios of victim i
	// under interferer j; all-ones (no interaction) by default.
	inter [][]interference
}

// channelRatios is the lock-ordering decomposition of one interferer's
// effect on one received channel, each ratio in [0, 1] relative to that
// channel's isolation PRR. The decomposition mirrors the simulator's
// receiver (phy.Radio) case by case:
//
//   - vf (victim-first): the receiver locked the victim's frame before
//     the interferer arrived, so only payload bit errors accrue over
//     the interference segments.
//   - ii (idle-interfered): the victim's frame arrives with the
//     interferer on air but not holding the lock (phy radios attempt
//     lock only on signal starts, so a mid-air interferer that missed
//     its own lock window never grabs the radio later) — a plain lock
//     attempt at the degraded SINR, then the same payload errors.
//   - cap (captured): the interferer holds the lock and the victim's
//     frame must steal it at the capture margin (phy.Radio.tryCapture).
//   - lockJ: the probability the interferer's own frame acquires this
//     receiver when it arrives while the receiver is unlocked — the
//     gate between the ii and cap cases.
type channelRatios struct {
	vf, ii, cap, lockJ float64
}

// identityRatios is the no-interaction value.
var identityRatios = channelRatios{vf: 1, ii: 1, cap: 1, lockJ: 0}

// saturated is the composite ratio with the interferer always already
// on air and free to lock — the ordering mix a saturated concurrency
// measurement sees, and therefore the paper's l_interf classification
// basis.
func (c channelRatios) saturated() float64 {
	return c.lockJ*c.cap + (1-c.lockJ)*c.ii
}

// interference bundles the per-channel ratio decompositions of one
// ordered flow pair (victim, interferer).
type interference struct {
	// data is the victim's forward data frame at its receiver.
	data channelRatios
	// rev is the short ACK/control reply the victim's receiver sends
	// back, as heard at the victim's sender.
	rev channelRatios
}

// noInterference is the identity ratio set.
var noInterference = interference{data: identityRatios, rev: identityRatios}

// NewSynthetic returns a graph of n flows with no edges, perfect
// isolation reception and the 6 Mb/s rate — the starting point for
// tests that want a hand-built topology rather than an extracted one.
func NewSynthetic(n int) *Graph {
	g := &Graph{
		IsoPRR: make([]float64, n),
		Rates:  make([]phy.Rate, n),
		sense:  make([][]int, n),
		harm:   make([][]int, n),
		inter:  newInterMatrix(n),
	}
	for i := range g.IsoPRR {
		g.IsoPRR[i] = 1
		g.Rates[i] = phy.RateByID(phy.Rate6Mbps)
	}
	return g
}

func newInterMatrix(n int) [][]interference {
	m := make([][]interference, n)
	for i := range m {
		m[i] = make([]interference, n)
		for j := range m[i] {
			m[i][j] = noInterference
		}
	}
	return m
}

// N returns the number of flows.
func (g *Graph) N() int { return len(g.IsoPRR) }

// insertSorted adds v to a sorted list if absent.
func insertSorted(list []int, v int) []int {
	k := sort.SearchInts(list, v)
	if k < len(list) && list[k] == v {
		return list
	}
	list = append(list, 0)
	copy(list[k+1:], list[k:])
	list[k] = v
	return list
}

func contains(list []int, v int) bool {
	k := sort.SearchInts(list, v)
	return k < len(list) && list[k] == v
}

// AddSense records that flows i and j can carrier-sense each other.
func (g *Graph) AddSense(i, j int) {
	if i == j {
		return
	}
	g.sense[i] = insertSorted(g.sense[i], j)
	g.sense[j] = insertSorted(g.sense[j], i)
}

// AddHarm records that interferer's concurrent transmission corrupts
// flow victim's reception: any overlapping data frame of the victim is
// lost regardless of lock ordering.
func (g *Graph) AddHarm(victim, interferer int) {
	if victim == interferer {
		return
	}
	g.classifyHarm(victim, interferer)
	g.inter[victim][interferer].data = channelRatios{vf: 0, ii: 0, cap: 0, lockJ: 1}
}

// classifyHarm marks the directed harm edge without touching the stored
// reception ratios — Extract computes those separately, and the edge is
// only the binary l_interf classification CMAP's defer rules consume.
func (g *Graph) classifyHarm(victim, interferer int) {
	g.harm[victim] = insertSorted(g.harm[victim], interferer)
}

// Ratios returns the ordering-split conditional reception ratios of
// victim under interferer: the victim's data frame with its receiver
// locked first (dataVF) or the interferer already on air (dataIF, the
// saturated composite of the capture and idle-lock paths), and the same
// split for the reverse ACK/control reply (revVF, revIF). All are 1
// when the pair does not interact.
func (g *Graph) Ratios(victim, interferer int) (dataVF, dataIF, revVF, revIF float64) {
	r := g.inter[victim][interferer]
	return r.data.vf, r.data.saturated(), r.rev.vf, r.rev.saturated()
}

// Sensed reports whether flows i and j have a sense edge.
func (g *Graph) Sensed(i, j int) bool { return contains(g.sense[i], j) }

// Harms reports whether interferer harms victim.
func (g *Graph) Harms(victim, interferer int) bool {
	return contains(g.harm[victim], interferer)
}

// SenseEdges returns the number of undirected sense edges.
func (g *Graph) SenseEdges() int {
	n := 0
	for _, l := range g.sense {
		n += len(l)
	}
	return n / 2
}

// HarmEdges returns the number of directed harm edges.
func (g *Graph) HarmEdges() int {
	n := 0
	for _, l := range g.harm {
		n += len(l)
	}
	return n
}

// ExtractConfig parameterises conflict-graph extraction. PRR is
// evaluated over mac.DefaultPayload-byte data frames, and harm is
// classified at CMAP's own l_interf (core.DefaultConfig().LossInterf).
type ExtractConfig struct {
	// Rate is the data bit-rate edges are classified at.
	Rate phy.RateID
	// CSThresholdDBm, when non-zero, overrides the medium's carrier-sense
	// threshold in the sensing-edge classification — the analytic
	// counterpart of the cs@<dBm> arm family's per-node override.
	CSThresholdDBm float64
}

// conditionalPRR is the reception ratio of a link received at sigMW
// under intfMW of concurrent interference power, with the same
// lock-probability × packet-error-rate composition phy.IsolationPRR
// uses. At intfMW = 0 it reduces to IsolationPRR to within rounding:
// the noise floor takes a round trip through mW, and MWToDBm(DBmToMW(x))
// need not return x's last bit.
func conditionalPRR(r phy.Rate, sigMW, intfMW float64, wireBytes int) float64 {
	sigDBm := radio.MWToDBm(sigMW)
	if sigDBm < phy.SensitivityDBm {
		return 0
	}
	noiseMW := radio.DBmToMW(phy.NoiseFloorDBm)
	sinrDB := sigDBm - radio.MWToDBm(noiseMW+intfMW) - phy.ImplementationLossDB
	return phy.LockProbability(sinrDB) * (1 - phy.PacketErrorRate(r, sinrDB, wireBytes))
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// orderedRatios decomposes a link's conditional reception under
// concurrent interference by lock ordering, mirroring phy.Radio:
//
//   - vf: the receiver locked the victim's frame in clean air (that
//     lock probability is already inside the isolation PRR), so only
//     the payload faces the interference — the ratio is the PER
//     degradation alone.
//   - ii: the victim's frame arrives with the interferer on air but
//     the radio unlocked — a plain lock attempt at the degraded SINR,
//     then the same payload errors.
//   - cap: the interferer holds the lock, and the victim's frame must
//     steal it at the capture margin (phy.Radio.tryCapture, which also
//     requires the frame to clear sensitivity — already checked here).
//   - lockJ: the interferer's own clean-air lock probability at this
//     receiver, gating how often the cap path applies.
//
// All ratios are relative to the link's isolation PRR, clamped to
// [0, 1]. The solver weighs the paths by the interferer's duty cycle
// and the victim receiver's own idle probability.
func orderedRatios(r phy.Rate, sigMW, intfMW float64, wireBytes int) channelRatios {
	sigDBm := radio.MWToDBm(sigMW)
	if sigDBm < phy.SensitivityDBm {
		return channelRatios{}
	}
	noiseMW := radio.DBmToMW(phy.NoiseFloorDBm)
	sinrIso := sigDBm - phy.NoiseFloorDBm - phy.ImplementationLossDB
	sinrBoth := sigDBm - radio.MWToDBm(noiseMW+intfMW) - phy.ImplementationLossDB
	perIso := phy.PacketErrorRate(r, sinrIso, wireBytes)
	perBoth := phy.PacketErrorRate(r, sinrBoth, wireBytes)
	lockIso := phy.LockProbability(sinrIso)
	if lockIso <= 0 || perIso >= 1 {
		return channelRatios{}
	}
	isoOK := lockIso * (1 - perIso)
	lockBoth := phy.LockProbability(sinrBoth)

	var c channelRatios
	c.vf = clamp01((1 - perBoth) / (1 - perIso))
	c.ii = clamp01(lockBoth * (1 - perBoth) / isoOK)
	if radio.MWToDBm(intfMW) >= phy.SensitivityDBm {
		c.lockJ = phy.LockProbability(radio.MWToDBm(intfMW) - phy.NoiseFloorDBm - phy.ImplementationLossDB)
		capture := phy.LockProbability(sinrBoth - phy.CaptureMarginDB)
		c.cap = clamp01(capture * (1 - perBoth) / isoOK)
	}
	return c
}

// Extract builds the conflict graph for the given flows over a built
// medium. All gains come from the medium's stored delivery lists (the
// numbers Transmit fans out with), so the graph and the simulator agree
// by construction:
//
//   - sense i–j: either sender hears the other at or above the
//     carrier-sense threshold, or the flows share a node (one radio
//     cannot serve two flows at once).
//   - harm j→i: with src_j transmitting concurrently, flow i's PRR
//     falls below (1 − l_interf) of its isolation PRR — the
//     classification CMAP's receivers apply (§3.1).
//
// Gains below the medium's delivery floor are treated as zero, exactly
// as the simulator treats them.
func Extract(m *medium.Medium, flows []topo.Link, cfg ExtractConfig) (*Graph, error) {
	if err := topo.CheckFlows(m.NodeCount(), flows); err != nil {
		return nil, fmt.Errorf("analytic: %w", err)
	}
	rate := phy.RateByID(cfg.Rate)
	lossInterf := core.DefaultConfig().LossInterf
	wire := (&frame.Dot11Data{PayloadLen: mac.DefaultPayload}).WireSize()
	ctrlWire := (&frame.Control{}).WireSize()
	csDBm := phy.CSThresholdDBm
	if cfg.CSThresholdDBm != 0 {
		csDBm = cfg.CSThresholdDBm
	}
	csMW := radio.DBmToMW(csDBm)

	n := len(flows)
	g := &Graph{
		Flows:  append([]topo.Link(nil), flows...),
		IsoPRR: make([]float64, n),
		Rates:  make([]phy.Rate, n),
		sense:  make([][]int, n),
		harm:   make([][]int, n),
		inter:  newInterMatrix(n),
	}
	sig := make([]float64, n) // received power of each flow's own signal, mW
	for i, f := range flows {
		g.Rates[i] = rate
		sig[i], _ = m.GainMW(f.Src, f.Dst)
		g.IsoPRR[i] = conditionalPRR(rate, sig[i], 0, wire)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := flows[i], flows[j]
			shared := a.Src == b.Src || a.Src == b.Dst || a.Dst == b.Src || a.Dst == b.Dst
			if shared {
				// One radio cannot transmit two flows, or receive while
				// transmitting: the flows serialise and corrupt each other.
				g.AddSense(i, j)
				g.AddHarm(i, j)
				continue
			}
			if j > i {
				gij, _ := m.GainMW(b.Src, a.Src)
				gji, _ := m.GainMW(a.Src, b.Src)
				if gij >= csMW || gji >= csMW {
					g.AddSense(i, j)
				}
			}
			if g.IsoPRR[i] > 0 {
				if intf, ok := m.GainMW(b.Src, a.Dst); ok {
					c := orderedRatios(rate, sig[i], intf, wire)
					g.inter[i][j].data = c
					// The harm classification is the paper's l_interf
					// measurement: loss observed while both senders run
					// saturated, i.e. with the interferer virtually always
					// already on air — the interferer-first composite.
					if c.saturated() < 1-lossInterf {
						g.classifyHarm(i, j)
					}
				}
			}
			// Reverse channel: the short ACK/control reply dst_i→src_i
			// under src_j's signal at src_i. Sensed-and-deferred peers
			// never overlap it (SIFS < DIFS protects the turnaround), but
			// a concurrent transmitter can starve the victim's feedback
			// even when it leaves the forward data path untouched.
			if rsig, ok := m.GainMW(a.Dst, a.Src); ok {
				if rintf, ok2 := m.GainMW(b.Src, a.Src); ok2 {
					if conditionalPRR(rate, rsig, 0, ctrlWire) > 0 {
						g.inter[i][j].rev = orderedRatios(rate, rsig, rintf, ctrlWire)
					}
				}
			}
		}
	}
	return g, nil
}

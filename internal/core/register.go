package core

// Registration of the cmap spec family with the internal/mac registry,
// plus the thin adapter methods that complete the mac.Node and
// mac.Visibility interfaces on *Node. The aliases' seed salts are pinned
// to the legacy experiments.Protocol integer values so every golden
// trace recorded before the registry existed stays bit-identical.

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SetMeter implements mac.Node.
func (n *Node) SetMeter(m *stats.Meter) { n.Meter = m }

// SetOnDeliver implements mac.Node.
func (n *Node) SetOnDeliver(fn mac.DeliverFunc) { n.OnDeliver = fn }

// LatencyWindow implements mac.Node: up to Nwindow virtual packets of
// Nvpkt data packets each can be in flight at once.
func (n *Node) LatencyWindow() int { return n.cfg.windowPackets() }

// Counters implements mac.Node: the station's own counts, with the
// conflict map's two live sizes filled in. CMAP has no MAC-level retry
// limit — packets persist until acknowledged — so Dropped stays zero.
func (n *Node) Counters() mac.Counters {
	c := n.Stat
	c.DeferEntries = uint64(n.DeferTableSize())
	c.InterfererEntries = uint64(n.InterfererListLen())
	return c
}

// maxWindowPackets bounds the send window in data packets: a receiver
// acknowledges up to twice the window in one ACK bitmap, whose byte
// count is a uint16.
const maxWindowPackets = 4 * math.MaxUint16

// specConfig maps a cmap spec's values (win, vpkt, pdq) onto Config.
func specConfig(v []int) (Config, *mac.SpecError) {
	c := DefaultConfig()
	c.Nwindow = v[0]
	c.Nvpkt = v[1]
	c.PerDestQueues = v[2] == 1
	if c.windowPackets() > maxWindowPackets {
		return c, &mac.SpecError{Key: "win", Reason: fmt.Sprintf("win×vpkt = %d exceeds the %d packets an ACK bitmap spans", c.windowPackets(), maxWindowPackets)}
	}
	return c, nil
}

// newStation builds a station from a cmap spec's Config and the
// cross-arm options.
func newStation(id int, c Config, m *medium.Medium, rng *sim.RNG, opt mac.Options) mac.Node {
	c.Rate = opt.Rate
	c.PayloadBytes = cmp.Or(opt.Payload, c.PayloadBytes)
	return New(id, c, m, rng)
}

func init() {
	mac.RegisterSpecFamily("cmap",
		[]mac.Key{
			{Name: "win", Default: 8, Max: maxWindowPackets},     // Nwindow
			{Name: "vpkt", Default: 32, Max: math.MaxUint16 + 1}, // Nvpkt: Data.Index is a uint16
			{Name: "pdq"}, // PerDestQueues
		},
		[]mac.Alias{
			{Name: "cmap", Spec: "cmap", Label: "CMAP", Salt: 4},
			{Name: "cmap1", Spec: "cmap:win=1", Label: "CMAP, win=1", Salt: 5},
		},
		specConfig, newStation)
}

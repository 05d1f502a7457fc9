package core

// Registration of the CMAP protocol arms with the internal/mac registry,
// plus the thin adapter methods that complete the mac.Node and
// mac.Visibility interfaces on *Node. Seed salts are pinned to the legacy
// experiments.Protocol integer values so every golden trace recorded
// before the registry existed stays bit-identical.

import (
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SetMeter implements mac.Node.
func (n *Node) SetMeter(m *stats.Meter) { n.Meter = m }

// SetOnDeliver implements mac.Node.
func (n *Node) SetOnDeliver(fn mac.DeliverFunc) { n.OnDeliver = fn }

// LatencyWindow implements mac.Node: up to Nwindow virtual packets of
// Nvpkt data packets each can be in flight at once.
func (n *Node) LatencyWindow() int { return n.cfg.Nwindow * n.cfg.Nvpkt }

// Counters implements mac.Node. CMAP has no MAC-level retry limit —
// packets persist until acknowledged — so Dropped stays zero.
func (n *Node) Counters() mac.Counters {
	return mac.Counters{
		Sent:              n.Stat.DataSent,
		Delivered:         n.Stat.Delivered,
		Duplicates:        n.Stat.Duplicates,
		AckTimeouts:       n.Stat.AckWaitExpired,
		VpktsSent:         n.Stat.VpktsSent,
		Defers:            n.Stat.Defers,
		Backoffs:          n.Stat.Backoffs,
		RetxTimeouts:      n.Stat.RetxTimeouts,
		DeferEntries:      uint64(n.DeferTableSize()),
		InterfererEntries: uint64(n.InterfererListLen()),
	}
}

// arm adapts a Config recipe to the mac.Arm interface.
type arm struct {
	name      string
	label     string
	salt      uint64
	configure func(*Config)
}

func (a arm) Name() string     { return a.name }
func (a arm) Label() string    { return a.label }
func (a arm) SeedSalt() uint64 { return a.salt }

func (a arm) New(id int, m mac.Network, rng *sim.RNG, opt mac.Options) mac.Node {
	cfg := DefaultConfig()
	cfg.Rate = opt.Rate
	if a.configure != nil {
		a.configure(&cfg)
	}
	return New(id, cfg, m, rng)
}

func init() {
	mac.Register(arm{name: "cmap", label: "CMAP", salt: 4})
	mac.Register(arm{name: "cmap1", label: "CMAP, win=1", salt: 5,
		configure: func(c *Config) { c.Nwindow = 1 }})
}

package csma

// Registration of the CSMA-derived protocol arms with the internal/mac
// registry: the four carrier-sense/ACK baseline variants the paper
// tables, the RTS/CTS handshake arm, and the cs@<dBm> carrier-sense-
// threshold family swept by the threshold figure. Seed salts are pinned
// to the legacy experiments.Protocol integer values so every golden
// trace recorded before the registry existed stays bit-identical.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SetMeter implements mac.Node.
func (n *Node) SetMeter(m *stats.Meter) { n.Meter = m }

// SetOnDeliver implements mac.Node.
func (n *Node) SetOnDeliver(fn mac.DeliverFunc) { n.OnDeliver = fn }

// LatencyWindow implements mac.Node: stop-and-wait keeps one packet in
// flight, so a small arrival-time ring suffices.
func (n *Node) LatencyWindow() int { return 16 }

// Counters implements mac.Node.
func (n *Node) Counters() mac.Counters {
	return mac.Counters{
		Sent:        n.Stat.Sent,
		Delivered:   n.Stat.Delivered,
		Duplicates:  n.Stat.Duplicates,
		Dropped:     n.Stat.Dropped,
		AckTimeouts: n.Stat.AckTimeout,
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

// csSaltBase offsets the cs@<dBm> family's seed salts far above the
// pinned legacy arm values so no threshold can collide with them.
const csSaltBase = 1_000_003

// parseCSArm resolves one member of the cs@<dBm> family, e.g. cs@-82.
// The range test is written so NaN, which compares false with
// everything, fails it.
func parseCSArm(name string) (mac.Arm, error) {
	spec := strings.TrimPrefix(name, "cs@")
	thr, err := strconv.ParseFloat(spec, 64)
	if err != nil {
		return nil, fmt.Errorf("cs@ arm %q: threshold %q is not a number", name, spec)
	}
	if !(thr < 0 && thr >= -120) {
		return nil, fmt.Errorf("cs@ arm %q: threshold must be in (-120, 0) dBm", name)
	}
	return arm{
		name:  name,
		label: fmt.Sprintf("CS @ %g dBm", thr),
		salt:  csSaltBase + uint64(int64(-thr*100)),
		configure: func(c *Config) {
			c.CSThresholdDBm = thr
		},
	}, nil
}

func init() {
	mac.Register(arm{name: "csma", label: "CS, acks", salt: 0})
	mac.Register(arm{name: "csma-noack", label: "CS, no acks", salt: 1,
		configure: func(c *Config) { c.LinkACKs = false }})
	mac.Register(arm{name: "csma-nocs", label: "CS off, acks", salt: 2,
		configure: func(c *Config) { c.CarrierSense = false }})
	mac.Register(arm{name: "csma-nocs-noack", label: "CS off, no acks", salt: 3,
		configure: func(c *Config) { c.CarrierSense = false; c.LinkACKs = false }})
	mac.Register(arm{name: "rtscts", label: "RTS/CTS", salt: 6,
		configure: func(c *Config) { c.RTSCTS = true }})
	mac.RegisterFamily("cs@", "cs@<dBm>", parseCSArm)
}

package csma

// Registration of the CSMA-derived protocol arms with the internal/mac
// registry: the csma spec family over the carrier-sense, ACK and RTS/CTS
// switches (whose aliases are the four baseline variants the paper
// tables and the RTS/CTS handshake arm), and the cs@<dBm>
// carrier-sense-threshold family swept by the threshold figure. The
// aliases' seed salts are pinned to the legacy experiments.Protocol
// integer values so every golden trace recorded before the registry
// existed stays bit-identical.

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mac"
	"repro/internal/medium"
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
func (n *Node) Counters() mac.Counters { return n.Stat }

// newStation builds a station from an arm's Config and the cross-arm
// options.
func newStation(id int, c Config, m *medium.Medium, rng *sim.RNG, opt mac.Options) mac.Node {
	c.Rate = opt.Rate
	c.PayloadBytes = cmp.Or(opt.Payload, c.PayloadBytes)
	return New(id, c, m, rng)
}

// specConfig maps a csma spec's flags (nocs, noack, rts) onto Config.
func specConfig(v []int) (Config, *mac.SpecError) {
	c := DefaultConfig()
	c.CarrierSense = v[0] == 0
	c.LinkACKs = v[1] == 0
	c.RTSCTS = v[2] == 1
	return c, nil
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
	c := DefaultConfig()
	c.CSThresholdDBm = thr
	return mac.NewArm(name, fmt.Sprintf("CS @ %g dBm", thr), csSaltBase+uint64(int64(-thr*100)), c, newStation), nil
}

func init() {
	mac.RegisterSpecFamily("csma",
		[]mac.Key{{Name: "nocs"}, {Name: "noack"}, {Name: "rts"}},
		[]mac.Alias{
			{Name: "csma", Spec: "csma", Label: "CS, acks", Salt: 0},
			{Name: "csma-noack", Spec: "csma:noack", Label: "CS, no acks", Salt: 1},
			{Name: "csma-nocs", Spec: "csma:nocs", Label: "CS off, acks", Salt: 2},
			{Name: "csma-nocs-noack", Spec: "csma:nocs:noack", Label: "CS off, no acks", Salt: 3},
			{Name: "rtscts", Spec: "csma:rts", Label: "RTS/CTS", Salt: 6},
		},
		specConfig, newStation)
	mac.RegisterFamily("cs@", "cs@<dBm>", parseCSArm)
}

package mobility

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind selects a movement model.
type Kind uint8

const (
	// None leaves every node frozen; the zero Spec is a static run.
	None Kind = iota
	// Waypoint is random waypoint: pick a uniform target in the roam
	// region, travel to it at constant speed, repeat.
	Waypoint
	// RandomWalk holds a uniform random heading for a random 1–2 s
	// interval, reflecting off the roam-region walls.
	RandomWalk
	// Vehicular is a lane flow: each node keeps its Y as a lane, drives
	// ±X at a per-node jittered speed, and wraps around the arena.
	Vehicular
)

// String names the kind the way ParseSpec spells it.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Waypoint:
		return "waypoint"
	case RandomWalk:
		return "walk"
	case Vehicular:
		return "vehicular"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DefaultEpoch is the position-update interval when Spec.Epoch is zero:
// 100 ms keeps per-epoch displacement well under a cell size at
// pedestrian-to-vehicular speeds while staying cheap next to the
// per-frame event load.
const DefaultEpoch = 100 * sim.Millisecond

// Spec configures mobility for a run. The zero value means static.
type Spec struct {
	Kind Kind
	// SpeedMps is the nominal node speed in metres per second.
	SpeedMps float64
	// Epoch is the position-update interval; zero means DefaultEpoch.
	Epoch sim.Time
	// RangeM, when positive, confines each node to a disk of this
	// radius around its initial position (intersected with the arena).
	// Zero lets waypoint/walk roam the whole arena. Vehicular ignores
	// it — lanes span the arena by construction.
	RangeM float64
	// DecorrM is the shadowing decorrelation distance in metres: each
	// node re-draws its shadowing contribution (via Channel) every
	// DecorrM metres of travel. Zero disables shadowing re-draws.
	DecorrM float64
}

// Active reports whether the spec actually moves nodes.
func (s Spec) Active() bool { return s.Kind != None && s.SpeedMps > 0 }

// String renders the spec in ParseSpec's format.
func (s Spec) String() string {
	if s.Kind == None {
		return "none"
	}
	out := fmt.Sprintf("%s@%g", s.Kind, s.SpeedMps)
	if s.RangeM > 0 {
		out += fmt.Sprintf("@%g", s.RangeM)
	}
	return out
}

// MaxSpeedMps is the fastest speed ParseSpec accepts: one metre per
// tick of sim.Time. Anything faster covers a metre in less virtual time
// than the clock can count, and is a typo or an overflow, not a model.
const MaxSpeedMps = float64(sim.Second)

// parseBounded parses a field that must lie in [0, max].
// strconv.ParseFloat alone accepts "NaN" and "Inf", and NaN is not
// below zero.
func parseBounded(field string, max float64) (float64, bool) {
	v, err := strconv.ParseFloat(field, 64)
	return v, err == nil && v >= 0 && v <= max
}

// ParseSpec parses the CLI mobility syntax "<model>@<speed>" with an
// optional roam-radius third field: "waypoint@3", "walk@1.5",
// "vehicular@20", "waypoint@3@15" (roam within 15 m of home), or
// "none". Speeds are in m/s and at most MaxSpeedMps, the radius in
// metres; both must be finite and non-negative.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Spec{}, nil
	}
	parts := strings.Split(s, "@")
	var spec Spec
	switch parts[0] {
	case "waypoint":
		spec.Kind = Waypoint
	case "walk":
		spec.Kind = RandomWalk
	case "vehicular":
		spec.Kind = Vehicular
	default:
		return Spec{}, fmt.Errorf("mobility: unknown model %q (want waypoint, walk, vehicular, or none)", parts[0])
	}
	if len(parts) < 2 {
		return Spec{}, fmt.Errorf("mobility: %q needs a speed, e.g. %q", s, parts[0]+"@3")
	}
	var ok bool
	if spec.SpeedMps, ok = parseBounded(parts[1], MaxSpeedMps); !ok {
		return Spec{}, fmt.Errorf("mobility: bad speed %q in %q (want 0 to %g m/s)", parts[1], s, MaxSpeedMps)
	}
	if len(parts) >= 3 {
		if spec.RangeM, ok = parseBounded(parts[2], math.MaxFloat64); !ok {
			return Spec{}, fmt.Errorf("mobility: bad roam radius %q in %q (want a finite, non-negative number of metres)", parts[2], s)
		}
	}
	if len(parts) > 3 {
		return Spec{}, fmt.Errorf("mobility: too many fields in %q", s)
	}
	return spec, nil
}

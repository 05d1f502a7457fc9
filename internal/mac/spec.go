package mac

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/medium"
	"repro/internal/sim"
)

// Key is one setting of a spec family, spelled after a colon: a flag
// ("pdq") when Max is zero, else an integer ("win=N") in [1, Max], the
// range of the field it lands in. A spec without an integer key means
// its Default, and one spelling the Default normalises to the form
// without it.
type Key struct {
	Name         string
	Default, Max int
}

// SpecError is the typed error for an arm spec, or a station setting,
// that the registry refuses: which key, and why.
type SpecError struct{ Spec, Key, Reason string }

func (e *SpecError) Error() string { return fmt.Sprintf("mac: %s: %s: %s", e.Spec, e.Key, e.Reason) }

// setting parses an integer setting and bounds it to [1, max].
func setting(spec, key, val string, max int) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil || v < 1 || v > max {
		return 0, &SpecError{spec, key, fmt.Sprintf("%q is not an integer in [1, %d]", val, max)}
	}
	return v, nil
}

// CheckPayload bounds Options.Payload by the uint16 PayloadLen of the
// data frames it lands in.
func CheckPayload(bytes int) error {
	_, err := setting("station", "payload", strconv.Itoa(bytes), math.MaxUint16)
	return err
}

// Alias is a fixed arm name that stands for one canonical spec of its
// family ("cmap1" for "cmap:win=1"), with the label and pinned seed salt
// it carried before families existed.
type Alias struct {
	Name, Spec, Label string
	Salt              uint64
}

// Builder constructs a station from a family configuration and the
// cross-arm options.
type Builder[C any] func(id int, cfg C, m *medium.Medium, rng *sim.RNG, opt Options) Node

// arm is the one Arm implementation: a configuration recipe under a
// name, label and seed salt. Config exposes the recipe, so a reader such
// as the analytic oracle models the arm that runs, not its name.
type arm[C any] struct {
	name, label string
	salt        uint64
	cfg         C
	build       Builder[C]
}

// NewArm wraps a configuration recipe as an Arm.
func NewArm[C any](name, label string, salt uint64, cfg C, build Builder[C]) Arm {
	return &arm[C]{name, label, salt, cfg, build}
}

func (a *arm[C]) Name() string     { return a.name }
func (a *arm[C]) Label() string    { return a.label }
func (a *arm[C]) SeedSalt() uint64 { return a.salt }
func (a *arm[C]) Config() C        { return a.cfg }

func (a *arm[C]) New(id int, m *medium.Medium, rng *sim.RNG, opt Options) Node {
	return a.build(id, a.cfg, m, rng, opt)
}

// RegisterSpecFamily registers the family <name>[:key[=value]]... over
// keys in canonical order. config maps a value vector (an integer key's
// value, 1 or 0 for a flag) onto the family's configuration, refusing
// what no single key bounds. Each alias registers as a fixed name that
// every spelling of its spec resolves to; any other spec is an arm
// named and labelled by its canonical form, salted from it.
func RegisterSpecFamily[C any](name string, keys []Key, aliases []Alias, config func(v []int) (C, *SpecError), build Builder[C]) {
	menu := make([]string, len(keys))
	for i, k := range keys {
		menu[i] = k.Name
		if k.Max > 0 {
			menu[i] += "=N"
		}
	}
	// resolve validates spec and returns its canonical form (keys in
	// family order, defaults dropped) and its configuration.
	resolve := func(spec string) (string, C, error) {
		var cfg C
		v := make([]int, len(keys))
		for i, k := range keys {
			v[i] = k.Default
		}
		seen := make([]bool, len(keys))
		for _, item := range strings.Split(strings.TrimPrefix(spec, name), ":")[1:] {
			key, val, hasVal := strings.Cut(item, "=")
			i := slices.IndexFunc(keys, func(k Key) bool { return k.Name == key })
			switch {
			case i < 0:
				return "", cfg, &SpecError{spec, key, "no such key (want " + strings.Join(menu, "|") + ")"}
			case seen[i]:
				return "", cfg, &SpecError{spec, key, "repeated"}
			case hasVal != (keys[i].Max > 0):
				return "", cfg, &SpecError{spec, key, "must be spelled " + menu[i]}
			case hasVal:
				n, err := setting(spec, key, val, keys[i].Max)
				if err != nil {
					return "", cfg, err
				}
				v[i] = n
			default:
				v[i] = 1
			}
			seen[i] = true
		}
		canon := name
		for i, k := range keys {
			if k.Max == 0 && v[i] == 1 {
				canon += ":" + k.Name
			} else if k.Max > 0 && v[i] != k.Default {
				canon += ":" + k.Name + "=" + strconv.Itoa(v[i])
			}
		}
		cfg, refused := config(v)
		if refused != nil {
			refused.Spec = spec
			return "", cfg, refused
		}
		return canon, cfg, nil
	}
	fixed := map[string]string{} // canonical spec → alias
	for _, al := range aliases {
		canon, cfg, err := resolve(al.Spec)
		if err != nil || canon != al.Spec {
			panic(fmt.Sprintf("mac: alias %s: %q is not a canonical %s spec", al.Name, al.Spec, name))
		}
		Register(NewArm(al.Name, al.Label, al.Salt, cfg, build))
		fixed[canon] = al.Name
	}
	RegisterFamily(name+":", name+":<"+strings.Join(menu, "|")+">...", func(spec string) (Arm, error) {
		canon, cfg, err := resolve(spec)
		if err != nil {
			return nil, err
		}
		if alias, ok := fixed[canon]; ok {
			return Lookup(alias)
		}
		h := fnv.New32a()
		h.Write([]byte(canon))
		// FNV-1a of the canonical form, lifted into [2³², 2³³): clear of
		// the pinned salts 0–6 and of cs@'s 1 000 003 + 100·(−dBm).
		return NewArm(canon, canon, 1<<32|uint64(h.Sum32()), cfg, build), nil
	})
}

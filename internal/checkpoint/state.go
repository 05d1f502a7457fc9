package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// Component is the checkpoint surface of everything besides the engine
// that owns agenda events: MAC stations, traffic sources and the
// mobility manager. Each keeps its mutable fields in one embedded state
// struct, so ExportState marshals that struct and RestoreState
// unmarshals into a fresh zero state, re-links the few references that
// are not data (timers, aliases into embedded buffers, objects the
// agenda already points at) and assigns it. EncodeEventArg and
// DecodeEventArg translate the arguments of the component's agenda
// events, which the scheduler cannot name.
type Component interface {
	ExportState() (json.RawMessage, error)
	RestoreState(enc json.RawMessage) error
	EncodeEventArg(arg any) (json.RawMessage, error)
	DecodeEventArg(enc json.RawMessage) (any, error)
}

// Map is a map whose checkpoint form is a list of {"k", "v"} entries
// sorted by each key's encoding. encoding/json sorts map keys itself but
// accepts only string, integer and text-marshalling ones; Map carries
// the struct- and address-keyed tables with the same determinism, and
// live code uses it as the plain map it is.
type Map[K comparable, V any] map[K]V

type entry[K, V any] struct {
	K K `json:"k"`
	V V `json:"v"`
}

// MarshalJSON implements json.Marshaler.
func (m Map[K, V]) MarshalJSON() ([]byte, error) {
	es := make([]entry[json.RawMessage, V], 0, len(m))
	for k, v := range m {
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		es = append(es, entry[json.RawMessage, V]{kb, v})
	}
	slices.SortFunc(es, func(a, b entry[json.RawMessage, V]) int { return bytes.Compare(a.K, b.K) })
	return json.Marshal(es)
}

// UnmarshalJSON implements json.Unmarshaler. It replaces the map rather
// than merging into it, and refuses a key listed twice: no export
// writes one.
func (m *Map[K, V]) UnmarshalJSON(b []byte) error {
	var es []entry[K, V]
	if err := json.Unmarshal(b, &es); err != nil {
		return err
	}
	*m = make(Map[K, V], len(es))
	for _, e := range es {
		if _, dup := (*m)[e.K]; dup {
			return fmt.Errorf("checkpoint: map key %v listed twice", e.K)
		}
		(*m)[e.K] = e.V
	}
	return nil
}

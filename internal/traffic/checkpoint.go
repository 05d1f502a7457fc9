package traffic

import (
	"encoding/json"
	"fmt"
)

// Checkpoint surface of an arrival source: the embedded state struct is
// stored as it is, and the resumer rebuilds everything structural
// through NewSource with the same spec. It implements
// checkpoint.Component.

// ExportState marshals the source's state.
func (s *Source) ExportState() (json.RawMessage, error) { return json.Marshal(&s.state) }

// RestoreState replaces the source's state. It must run after the
// scheduler's RestoreState so the timers' seqs resolve through the
// scheduler's seq → slab-index lookup. An arrival ring whose length is
// not Mask+1 is refused: arrive would index past it.
func (s *Source) RestoreState(enc json.RawMessage) error {
	var st state
	if err := json.Unmarshal(enc, &st); err != nil {
		return fmt.Errorf("traffic: source state: %w", err)
	}
	if st.Times != nil && len(st.Times) != int(st.Mask)+1 {
		return fmt.Errorf("traffic: arrival ring of %d slots under mask %#x", len(st.Times), st.Mask)
	}
	if err := s.sched.Attach(&st.Arrival, &st.Phase, &st.Churn); err != nil {
		return fmt.Errorf("traffic: source timers: %w", err)
	}
	s.state = st
	return nil
}

// EncodeEventArg encodes one source-owned agenda event argument (the
// three fixed timer kinds).
func (s *Source) EncodeEventArg(arg any) (json.RawMessage, error) {
	ev, ok := arg.(srcEvent)
	if !ok {
		return nil, fmt.Errorf("traffic: source holds unencodable event arg %T", arg)
	}
	return json.Marshal(ev)
}

// DecodeEventArg inverts EncodeEventArg.
func (s *Source) DecodeEventArg(enc json.RawMessage) (any, error) {
	var ev srcEvent
	if err := json.Unmarshal(enc, &ev); err != nil {
		return nil, fmt.Errorf("traffic: source event arg: %w", err)
	}
	return ev, nil
}

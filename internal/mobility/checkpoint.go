package mobility

import (
	"encoding/json"
	"fmt"

	"repro/internal/geo"
)

// Checkpoint surface of the manager; it implements checkpoint.Component.
// The embedded state is stored as it is, next to the two pieces of run
// state the manager drives but does not hold: node positions (the
// medium's) and shadowing epochs (the channel's). Everything derivable
// from the Spec and arena is rebuilt by New. Restoring replays every
// node's checkpointed position through the medium's patch path, which
// reproduces the delivery lists exactly (they are a pure function of
// final positions and shadowing epochs), so a resumed run is
// bit-identical to an uninterrupted one.

// snapshot is the manager in checkpoint form.
type snapshot struct {
	state
	Pos    []geo.Point `json:"pos"`
	Shadow []uint32    `json:"shadow,omitempty"`
}

// ExportState marshals the manager's state with the positions and
// shadowing epochs it drives.
func (mg *Manager) ExportState() (json.RawMessage, error) {
	s := snapshot{state: mg.state, Pos: make([]geo.Point, len(mg.Nodes))}
	for i := range s.Pos {
		s.Pos[i] = mg.med.Position(i)
	}
	if mg.ch != nil {
		s.Shadow = mg.ch.epochs
	}
	return json.Marshal(s)
}

// RestoreState replaces the manager's state and repositions every node
// through the medium so the delivery lists match the checkpointed
// positions exactly. Shadowing epochs are restored first — the patch
// recomputes gains from the live model, so the model must be in its
// checkpointed state before it runs.
func (mg *Manager) RestoreState(enc json.RawMessage) error {
	var s snapshot
	if err := json.Unmarshal(enc, &s); err != nil {
		return fmt.Errorf("mobility: state: %w", err)
	}
	n := len(mg.Nodes)
	if len(s.Nodes) != n || len(s.Pos) != n {
		return fmt.Errorf("mobility: checkpoint has %d nodes at %d positions, manager has %d", len(s.Nodes), len(s.Pos), n)
	}
	if mg.ch != nil && s.Shadow != nil && len(s.Shadow) != n {
		return fmt.Errorf("mobility: checkpoint has %d shadow epochs, manager has %d nodes", len(s.Shadow), n)
	}
	if mg.ch != nil {
		mg.ch.SetEpochs(s.Shadow)
	}
	mg.state = s.state
	// Unconditional: a node can be back at its starting point with a
	// non-zero shadow epoch, and its links still need refreshing.
	for i, p := range s.Pos {
		mg.ids = append(mg.ids, i)
		mg.pts = append(mg.pts, p)
	}
	mg.apply()
	return nil
}

// EncodeEventArg encodes the manager's single agenda event shape (the
// epoch tick, arg nil) for the checkpoint envelope.
func (mg *Manager) EncodeEventArg(arg any) (json.RawMessage, error) {
	if arg != nil {
		return nil, fmt.Errorf("mobility: unexpected event arg %T", arg)
	}
	return nil, nil
}

// DecodeEventArg inverts EncodeEventArg.
func (mg *Manager) DecodeEventArg(enc json.RawMessage) (any, error) {
	if len(enc) > 0 && string(enc) != "null" {
		return nil, fmt.Errorf("mobility: unexpected event encoding %q", enc)
	}
	return nil, nil
}

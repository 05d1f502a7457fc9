package mobility

import (
	"encoding/json"
	"fmt"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Checkpoint surface of the manager. The split follows the
// codebase-wide rule: everything derivable from the Spec and arena is
// rebuilt by New on resume; everything mutable — positions, targets,
// velocities, heading timers, travel odometers, per-node RNG streams,
// shadowing epochs, the epoch counter — is captured here. Restoring
// replays every node's checkpointed position through the medium's
// MoveNode, which reproduces the delivery lists exactly (they are a
// pure function of final positions and shadowing epochs), so a resumed
// run is bit-identical to an uninterrupted one.

// NodeState is one node's movement state in checkpoint form.
type NodeState struct {
	RNG    uint64    `json:"rng"`
	Home   geo.Point `json:"home"`
	Pos    geo.Point `json:"pos"`
	Target geo.Point `json:"target,omitempty"`
	VX     float64   `json:"vx,omitempty"`
	VY     float64   `json:"vy,omitempty"`
	Until  sim.Time  `json:"until,omitempty"`
	Trav   float64   `json:"trav,omitempty"`
}

// State is the manager's full mutable state in checkpoint form.
type State struct {
	Epochs uint64      `json:"epochs"`
	Nodes  []NodeState `json:"nodes"`
	Shadow []uint32    `json:"shadow,omitempty"`
}

// ExportState captures the manager's mutable state.
func (mg *Manager) ExportState() State {
	st := State{Epochs: mg.Epochs, Nodes: make([]NodeState, len(mg.nodes))}
	for i := range mg.nodes {
		n := &mg.nodes[i]
		st.Nodes[i] = NodeState{
			RNG:    n.rng.State(),
			Home:   n.home,
			Pos:    mg.med.Position(i),
			Target: n.target,
			VX:     n.vx,
			VY:     n.vy,
			Until:  n.until,
			Trav:   n.trav,
		}
	}
	if mg.ch != nil {
		st.Shadow = mg.ch.Epochs()
	}
	return st
}

// RestoreState overwrites the manager's mutable state from a checkpoint
// and repositions every node through the medium so the delivery lists
// match the checkpointed positions exactly. Shadowing epochs are
// restored first — the patch recomputes gains from the live model, so
// the model must be in its checkpointed state before it runs.
func (mg *Manager) RestoreState(st State) error {
	if len(st.Nodes) != len(mg.nodes) {
		return fmt.Errorf("mobility: checkpoint has %d nodes, manager has %d", len(st.Nodes), len(mg.nodes))
	}
	if mg.ch != nil {
		if len(st.Shadow) != len(mg.nodes) && st.Shadow != nil {
			return fmt.Errorf("mobility: checkpoint has %d shadow epochs, manager has %d nodes", len(st.Shadow), len(mg.nodes))
		}
		mg.ch.SetEpochs(st.Shadow)
	}
	mg.Epochs = st.Epochs
	for i := range mg.nodes {
		n, s := &mg.nodes[i], &st.Nodes[i]
		n.rng.SetState(s.RNG)
		n.home = s.Home
		n.target = s.Target
		n.vx, n.vy = s.VX, s.VY
		n.until = s.Until
		n.trav = s.Trav
		// Unconditional: a node can be back at its starting point with
		// a non-zero shadow epoch, and its links still need refreshing.
		mg.ids = append(mg.ids, i)
		mg.pts = append(mg.pts, s.Pos)
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

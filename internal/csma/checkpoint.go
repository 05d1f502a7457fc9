package csma

import (
	"encoding/json"
	"fmt"

	"repro/internal/frame"
)

// Checkpoint surface of the DCF station (and, through Config, of the
// RTS/CTS and cs@<dBm> arms built on it): the embedded state struct is
// stored as it is. The ACK/CTS free lists are pools and restore empty.

// ExportState implements mac.Checkpointer.
func (n *Node) ExportState() (json.RawMessage, error) { return json.Marshal(&n.state) }

// RestoreState implements mac.Checkpointer. It must run after the
// scheduler's RestoreState so the timers' seqs resolve through the
// scheduler's seq → slab-index lookup.
func (n *Node) RestoreState(enc json.RawMessage) error {
	st := newState()
	if err := json.Unmarshal(enc, &st); err != nil {
		return fmt.Errorf("csma: node %d state: %w", n.id, err)
	}
	if st.LastSeq == nil {
		return fmt.Errorf("csma: node %d state has no dedup cache", n.id)
	}
	if err := n.sched.Attach(&st.DIFSTimer, &st.BackoffTimer, &st.AckTimer, &st.CtsTimer, &st.NavTimer); err != nil {
		return fmt.Errorf("csma: node %d timers: %w", n.id, err)
	}
	n.state = st
	return nil
}

// csmaArg is the encoded form of one agenda event argument owned by
// this station: a fixed timer callback kind or a deferred ACK/CTS
// response frame.
type csmaArg struct {
	Ev    *macEvent  `json:"ev,omitempty"`
	Frame *frame.Any `json:"frame,omitempty"`
}

// EncodeEventArg implements mac.Checkpointer.
func (n *Node) EncodeEventArg(arg any) (json.RawMessage, error) {
	switch v := arg.(type) {
	case macEvent:
		return json.Marshal(csmaArg{Ev: &v})
	case *frame.Dot11Ack, *frame.Dot11CTS:
		return json.Marshal(csmaArg{Frame: &frame.Any{Frame: v.(frame.Frame)}})
	default:
		return nil, fmt.Errorf("csma: node %d holds unencodable event arg %T", n.id, arg)
	}
}

// DecodeEventArg implements mac.Checkpointer. Response frames decode to
// fresh objects — the dispatch path type-switches and reads content,
// never pointer identity, so a fresh object replays identically.
func (n *Node) DecodeEventArg(enc json.RawMessage) (any, error) {
	var a csmaArg
	if err := json.Unmarshal(enc, &a); err != nil {
		return nil, fmt.Errorf("csma: node %d event arg: %w", n.id, err)
	}
	switch {
	case a.Ev != nil:
		return *a.Ev, nil
	case a.Frame != nil:
		switch f := a.Frame.Frame.(type) {
		case *frame.Dot11Ack, *frame.Dot11CTS:
			return f, nil
		}
		return nil, fmt.Errorf("csma: node %d event arg holds unexpected frame %T", n.id, a.Frame.Frame)
	default:
		return nil, fmt.Errorf("csma: node %d event arg encodes neither kind nor frame", n.id)
	}
}

package core

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/frame"
)

// Checkpoint surface of the CMAP node: the embedded state struct is
// stored as it is, and New rebuilds the structural half (config, radio
// wiring, airtime tables). Restore re-links what is not data: the
// timers; the receiver flows agenda events carry, which DecodeEventArg
// already made through flowFor and the Rx map must hold; the aliases
// Cur → &curBuf (Seqs → seqBuf) and each rxFlow's Cur → &curBuf
// (Got → gotBuf); the staged virtual packet's flow, found by its
// destination; and the observation table's Config.

// ExportState implements mac.Checkpointer.
func (n *Node) ExportState() (json.RawMessage, error) { return json.Marshal(&n.state) }

// RestoreState implements mac.Checkpointer. It must run after the
// scheduler's RestoreState, which decodes the agenda through
// DecodeEventArg.
func (n *Node) RestoreState(enc json.RawMessage) error {
	st := newState()
	if err := json.Unmarshal(enc, &st); err != nil {
		return fmt.Errorf("core: node %d state: %w", n.id, err)
	}
	if err := n.sched.Attach(&st.AckTimer, &st.BackoffTimer, &st.DeferTimer, &st.RetxTimer, &st.RetryTimer); err != nil {
		return fmt.Errorf("core: node %d timers: %w", n.id, err)
	}
	for a, f := range st.Rx {
		if f == nil {
			return fmt.Errorf("core: node %d receiver flow from %v is incomplete", n.id, a)
		}
		if err := n.sched.Attach(&f.FinTimer); err != nil {
			return fmt.Errorf("core: node %d receiver flow from %v: %w", n.id, a, err)
		}
		if live := n.Rx[a]; live != nil {
			*live = *f
			f = live
			st.Rx[a] = live
		}
		if f.Cur != nil {
			f.curBuf = *f.Cur
			f.gotBuf = f.curBuf.Got
			f.Cur = &f.curBuf
		}
	}
	if slices.Contains(st.Obs.Entries, nil) {
		return fmt.Errorf("core: node %d observation table holds a null entry", n.id)
	}
	for k, s := range st.InterfStats {
		if s == nil {
			return fmt.Errorf("core: node %d loss statistics for %v are null", n.id, k)
		}
	}
	for a := range n.Rx {
		if st.Rx[a] == nil {
			return fmt.Errorf("core: node %d agenda names receiver flow from %v, state has none", n.id, a)
		}
	}
	flowByDst := make(map[frame.Addr]*txFlow, len(st.Flows))
	for _, f := range st.Flows {
		if f == nil {
			return fmt.Errorf("core: node %d holds an incomplete sender flow", n.id)
		}
		flowByDst[f.Dst] = f
	}
	if c := st.Cur; c != nil {
		if c.flow = flowByDst[c.Dst]; c.flow == nil {
			return fmt.Errorf("core: node %d staged virtual packet names unknown flow %v", n.id, c.Dst)
		}
		n.curBuf = *c
		n.seqBuf = c.Seqs
		st.Cur = &n.curBuf
	}
	st.Obs.cfg = &n.cfg
	n.flowByDst = flowByDst
	n.ackFree = n.ackFree[:0]
	n.listBusy = false
	n.state = st
	return nil
}

// coreArg is the encoded form of one agenda event argument owned by
// this node: exactly one field is set. A receiver flow is named by its
// source address.
type coreArg struct {
	Ev   *macEvent   `json:"ev,omitempty"`
	Rx   *frame.Addr `json:"rx,omitempty"`
	Ack  *ackAttempt `json:"ack,omitempty"`
	List *listSend   `json:"list,omitempty"`
}

// EncodeEventArg implements mac.Checkpointer.
func (n *Node) EncodeEventArg(arg any) (json.RawMessage, error) {
	var a coreArg
	switch v := arg.(type) {
	case macEvent:
		a.Ev = &v
	case *rxFlow:
		a.Rx = &v.SrcAddr
	case *ackAttempt:
		a.Ack = v
	case *listSend:
		a.List = v
	default:
		return nil, fmt.Errorf("core: node %d holds unencodable event arg %T", n.id, arg)
	}
	return json.Marshal(a)
}

// DecodeEventArg implements mac.Checkpointer. It runs during scheduler
// restore, before the node's own RestoreState: receiver flows are
// materialised through flowFor so the later state restore fills the same
// objects, and ACK/list arguments decode to fresh objects (their
// dispatch reads content, never pointer identity).
func (n *Node) DecodeEventArg(enc json.RawMessage) (any, error) {
	var a coreArg
	if err := json.Unmarshal(enc, &a); err != nil {
		return nil, fmt.Errorf("core: node %d event arg: %w", n.id, err)
	}
	switch {
	case a.Ev != nil:
		return *a.Ev, nil
	case a.Rx != nil:
		return n.flowFor(*a.Rx, 0), nil
	case a.Ack != nil:
		return a.Ack, nil
	case a.List != nil && a.List.List != nil:
		return a.List, nil
	default:
		return nil, fmt.Errorf("core: node %d event arg matches no known shape", n.id)
	}
}

package medium

import (
	"encoding/json"
	"fmt"

	"repro/internal/phy"
)

// Checkpoint surface of the medium. The delivery lists, radios and gain
// numbers are all structural (rebuilt deterministically by New from the
// same inputs), so the medium itself only carries two counters. The
// interesting work is the event-argument codec: the medium owns two
// agenda event shapes — the end-of-signal fan-out (*phy.Transmission)
// and the sender tx-done upcall (*phy.Radio) — and the fan-out events
// are exactly the set of in-flight transmissions, so decoding them
// doubles as materialising the active transmission set every radio's
// pointer state resolves against.

// State is the medium's mutable state in checkpoint form.
type State struct {
	NextTxID      uint64 `json:"next_tx_id"`
	Transmissions uint64 `json:"transmissions"`
}

// ExportState captures the medium's counters. The transmission free
// list is deliberately not captured: pool contents are invisible to
// behaviour, and a resumed run simply re-grows its ring.
func (m *Medium) ExportState() State {
	return State{NextTxID: m.nextTxID, Transmissions: m.Transmissions}
}

// RestoreState overwrites the medium's counters.
func (m *Medium) RestoreState(st State) {
	m.nextTxID = st.NextTxID
	m.Transmissions = st.Transmissions
}

// mediumArg is the encoded form of a medium-owned event argument:
// exactly one of the fields is set.
type mediumArg struct {
	Tx    *phy.TxState `json:"tx,omitempty"`
	Radio *int         `json:"radio,omitempty"`
}

// EncodeEventArg encodes one medium-owned agenda event argument.
func (m *Medium) EncodeEventArg(arg any) (json.RawMessage, error) {
	switch v := arg.(type) {
	case *phy.Transmission:
		ts, err := phy.ExportTransmission(v)
		if err != nil {
			return nil, err
		}
		return json.Marshal(mediumArg{Tx: &ts})
	case *phy.Radio:
		id := v.ID()
		return json.Marshal(mediumArg{Radio: &id})
	default:
		return nil, fmt.Errorf("medium: unencodable event arg %T", arg)
	}
}

// DecodeEventArg inverts EncodeEventArg. Decoded transmissions are
// registered in txs by TxID so radios can resolve their active/locked
// pointers against the same objects the agenda will deliver Depart
// with.
func (m *Medium) DecodeEventArg(enc json.RawMessage, txs map[uint64]*phy.Transmission) (any, error) {
	var a mediumArg
	if err := json.Unmarshal(enc, &a); err != nil {
		return nil, fmt.Errorf("medium: bad event arg: %w", err)
	}
	switch {
	case a.Tx != nil:
		tx := new(phy.Transmission)
		if err := a.Tx.Restore(tx); err != nil {
			return nil, err
		}
		txs[tx.TxID] = tx
		return tx, nil
	case a.Radio != nil:
		if *a.Radio < 0 || *a.Radio >= len(m.radios) {
			return nil, fmt.Errorf("medium: event names unknown radio %d", *a.Radio)
		}
		return m.radios[*a.Radio], nil
	default:
		return nil, fmt.Errorf("medium: event arg encodes neither tx nor radio")
	}
}

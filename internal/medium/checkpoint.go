package medium

import (
	"encoding/json"
	"fmt"

	"repro/internal/phy"
)

// Checkpoint surface of the medium. Delivery lists, radios and gains are
// structural (rebuilt by New from the same inputs), so the medium's own
// state is two counters. The interesting work is the event codec: the
// medium's one event shape, the end-of-signal fan-out
// (*phy.Transmission), is exactly the in-flight transmissions, so
// decoding them materialises the set every radio's signals resolve
// against. The fan-out also ends the sender's transmission, so no
// tx-done event exists to encode.

// State is the medium's mutable state and its checkpoint form. The
// transmission free list is deliberately not part of it: pool contents
// are invisible to behaviour, and a resumed run simply re-grows its ring.
type State struct {
	NextTxID uint64 `json:"next_tx_id"`
	// Transmissions counts frames put on the air, for diagnostics.
	Transmissions uint64 `json:"transmissions"`
}

// mediumArg is the encoded form of a medium-owned event argument.
type mediumArg struct {
	Tx *phy.TxState `json:"tx,omitempty"`
}

// EncodeEventArg encodes one medium-owned agenda event argument.
func (m *Medium) EncodeEventArg(arg any) (json.RawMessage, error) {
	tx, ok := arg.(*phy.Transmission)
	if !ok {
		return nil, fmt.Errorf("medium: unencodable event arg %T", arg)
	}
	ts := phy.ExportTransmission(tx)
	return json.Marshal(mediumArg{Tx: &ts})
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
	if a.Tx == nil {
		return nil, fmt.Errorf("medium: event arg encodes no known shape")
	}
	tx := new(phy.Transmission)
	if err := a.Tx.Restore(tx, len(m.radios)); err != nil {
		return nil, err
	}
	txs[tx.TxID] = tx
	return tx, nil
}

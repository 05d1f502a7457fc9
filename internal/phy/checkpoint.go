package phy

import (
	"fmt"
	"strconv"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Checkpoint surface of the radio. RadioState is stored as it is, and
// InitRadios rebuilds what it derives from Params. The one thing in it
// that is not data is a shared *Transmission: active and locked signals are
// stored as TxIDs and resolved, on restore, against the transmissions the
// medium materialised from the agenda, so the identities the
// reception path compares (Locked == tx in SignalEnd) hold again. Weak
// signals are only a count (see Radio.Arrive): their departures are
// driven by the delivery snapshot stored with the in-flight TxState.

// MarshalJSON writes a transmission as its TxID: radios share one
// Transmission by pointer, and its full record travels once, as the
// TxState of the agenda event that ends it.
func (tx *Transmission) MarshalJSON() ([]byte, error) {
	return strconv.AppendUint(nil, tx.TxID, 10), nil
}

// UnmarshalJSON reads a TxID into a placeholder that Radio.RestoreState
// resolves.
func (tx *Transmission) UnmarshalJSON(b []byte) (err error) {
	tx.TxID, err = strconv.ParseUint(string(b), 10, 64)
	return err
}

// TxState is one in-flight Transmission in checkpoint form. The medium
// materialises its active transmissions from the end-fanout events held
// in the checkpointed agenda, so the full record travels with that event
// rather than in a separate table.
type TxState struct {
	TxID  uint64    `json:"tx_id"`
	From  int       `json:"from"`
	Frame frame.Any `json:"frame"`
	Rate  RateID    `json:"rate"`
	Start sim.Time  `json:"start"`
	End   sim.Time  `json:"end"`
	// Deliveries is the part of the transmit-time delivery snapshot the
	// frame reached. It travels in the checkpoint so a resume fans
	// Depart out to exactly the radios the interrupted run's Arrive
	// reached, even if delivery lists were rebuilt after the frame went
	// on air.
	Deliveries []Delivery `json:"deliveries,omitempty"`
}

// ExportTransmission captures one in-flight transmission, its delivery
// snapshot cut down to the entries Heard names.
func ExportTransmission(tx *Transmission) TxState {
	reached := tx.Deliveries
	if tx.Heard != nil {
		reached = make([]Delivery, len(tx.Heard))
		for i, k := range tx.Heard {
			reached[i] = tx.Deliveries[k]
		}
	}
	return TxState{TxID: tx.TxID, From: tx.From, Frame: frame.Any{Frame: tx.Frame}, Rate: tx.Rate.ID, Start: tx.Start, End: tx.End, Deliveries: reached}
}

// Restore fills tx from the checkpointed record; nodes is the network's
// size, which every node the record names must be inside. The restored
// frame carries no Heard: its Deliveries are the receivers it reached.
func (st TxState) Restore(tx *Transmission, nodes int) error {
	if int(st.Rate) >= len(rateTable) {
		return fmt.Errorf("phy: transmission %d names invalid rate id %d", st.TxID, st.Rate)
	}
	if st.Frame.Frame == nil {
		return fmt.Errorf("phy: transmission %d carries no frame", st.TxID)
	}
	if st.From < 0 || st.From >= nodes {
		return fmt.Errorf("phy: transmission %d from unknown node %d", st.TxID, st.From)
	}
	for _, d := range st.Deliveries {
		if d.Dst < 0 || d.Dst >= nodes {
			return fmt.Errorf("phy: transmission %d delivers to unknown node %d", st.TxID, d.Dst)
		}
	}
	*tx = Transmission{TxID: st.TxID, From: st.From, Frame: st.Frame.Frame, Rate: rateTable[st.Rate], Start: st.Start, End: st.End, Deliveries: st.Deliveries}
	return nil
}

// RestoreState overwrites the radio's mutable state with st, resolving
// its signals' TxIDs against txs: the transmissions decoding the agenda
// materialised, one object per TxID, so in-set identity comparisons keep
// working. A state no run could have exported (a negative weak count, a
// total power that is not a non-negative number, an active list out of
// TxID order — which findActive's binary search would silently miss on)
// is refused before anything is written.
func (r *Radio) RestoreState(st RadioState, txs map[uint64]*Transmission) error {
	if st.WeakN < 0 {
		return fmt.Errorf("phy: radio %d weak signal count %d is negative", r.id, st.WeakN)
	}
	if !(st.TotalMW >= 0) {
		return fmt.Errorf("phy: radio %d total power %v mW is not a non-negative number", r.id, st.TotalMW)
	}
	resolve := func(tx **Transmission) error {
		if *tx == nil {
			return fmt.Errorf("phy: radio %d holds a signal with no transmission", r.id)
		}
		live, ok := txs[(*tx).TxID]
		if !ok {
			return fmt.Errorf("phy: radio %d references transmission %d with no agenda event", r.id, (*tx).TxID)
		}
		*tx = live
		return nil
	}
	for i := range st.Active {
		if err := resolve(&st.Active[i].Tx); err != nil {
			return err
		}
		if i > 0 && st.Active[i-1].Tx.TxID >= st.Active[i].Tx.TxID {
			return fmt.Errorf("phy: radio %d active signals not in ascending TxID order (%d before %d)", r.id, st.Active[i-1].Tx.TxID, st.Active[i].Tx.TxID)
		}
	}
	if st.Locked != nil {
		if err := resolve(&st.Locked); err != nil {
			return err
		}
	}
	r.RadioState = st
	return nil
}

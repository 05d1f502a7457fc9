package phy

import (
	"encoding/json"
	"fmt"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Checkpoint surface of the radio. The split follows the codebase-wide
// rule: everything derivable from Params (noise floor, the linear
// reception multipliers) is rebuilt by NewRadio on resume; everything
// mutable — reception state, the active signal set, counters, the RNG
// stream — is captured here. Active transmissions are referenced by
// TxID and resolved against the medium's reconstructed transmission
// set, so the pointer identities the reception path compares (locked ==
// tx in SignalEnd) hold again after a resume. Sub-sensitivity signals
// on the air are only a count (see Radio.Arrive): their departures are
// driven by the delivery snapshot stored with the in-flight TxState.

// TxState is one in-flight Transmission in checkpoint form. The medium
// and the shard engine both materialise their active transmissions from
// the end-fanout events held in the checkpointed agenda, so the full
// record travels with that event rather than in a separate table.
type TxState struct {
	TxID  uint64          `json:"tx_id"`
	From  int             `json:"from"`
	Frame json.RawMessage `json:"frame"`
	Rate  RateID          `json:"rate"`
	Start sim.Time        `json:"start"`
	End   sim.Time        `json:"end"`
	// Deliveries is the transmit-time delivery snapshot. It travels in
	// the checkpoint so a resume under mobility fans Depart out to
	// the same receiver set the interrupted run's Arrive reached,
	// even if delivery lists were patched after the frame went on air.
	Deliveries []Delivery `json:"deliveries,omitempty"`
	// All is Transmission.All: the end fan-out of a restored frame must
	// reach the radios its start fan-out did.
	All bool `json:"all,omitempty"`
}

// ExportTransmission captures one in-flight transmission.
func ExportTransmission(tx *Transmission) (TxState, error) {
	enc, err := frame.MarshalState(tx.Frame)
	if err != nil {
		return TxState{}, fmt.Errorf("phy: transmission %d from %d: %w", tx.TxID, tx.From, err)
	}
	return TxState{TxID: tx.TxID, From: tx.From, Frame: enc, Rate: tx.Rate.ID, Start: tx.Start, End: tx.End, Deliveries: tx.Deliveries, All: tx.All}, nil
}

// Restore fills tx from the checkpointed record.
func (st TxState) Restore(tx *Transmission) error {
	f, err := frame.UnmarshalState(st.Frame)
	if err != nil {
		return fmt.Errorf("phy: transmission %d from %d: %w", st.TxID, st.From, err)
	}
	if int(st.Rate) >= len(rateTable) {
		return fmt.Errorf("phy: transmission %d names invalid rate id %d", st.TxID, st.Rate)
	}
	*tx = Transmission{TxID: st.TxID, From: st.From, Frame: f, Rate: rateTable[st.Rate], Start: st.Start, End: st.End, Deliveries: st.Deliveries, All: st.All}
	return nil
}

// SignalState is one audible transmission in checkpoint form.
type SignalState struct {
	TxID    uint64  `json:"tx_id"`
	PowerMW float64 `json:"power_mw"`
}

// RadioState is the mutable half of a Radio.
type RadioState struct {
	Transmitting bool            `json:"transmitting,omitempty"`
	TxFrame      json.RawMessage `json:"tx_frame,omitempty"`
	Active       []SignalState   `json:"active,omitempty"`
	WeakN        int             `json:"weak_n,omitempty"`
	TotalMW      float64         `json:"total_mw"`
	LockedTxID   uint64          `json:"locked_tx_id,omitempty"`
	LockedMW     float64         `json:"locked_mw,omitempty"`
	LockLogSucc  float64         `json:"lock_log_succ,omitempty"`
	SegStart     sim.Time        `json:"seg_start,omitempty"`
	CarrierBusy  bool            `json:"carrier_busy,omitempty"`
	// CSMW is stored rather than re-derived: the cs@<dBm> arms override
	// it per node after construction.
	CSMW  float64    `json:"cs_mw"`
	RNG   uint64     `json:"rng"`
	Stats RadioStats `json:"stats"`
}

// ExportState captures the radio's mutable state.
func (r *Radio) ExportState() (RadioState, error) {
	st := RadioState{
		Transmitting: r.transmitting,
		WeakN:        r.weakN,
		TotalMW:      r.totalMW,
		LockedMW:     r.lockedMW,
		LockLogSucc:  r.lockLogSucc,
		SegStart:     r.segStart,
		CarrierBusy:  r.carrierBusy,
		CSMW:         r.csMW,
		RNG:          r.rng.State(),
		Stats:        r.stats,
	}
	if r.txFrame != nil {
		enc, err := frame.MarshalState(r.txFrame)
		if err != nil {
			return RadioState{}, fmt.Errorf("phy: radio %d tx frame: %w", r.id, err)
		}
		st.TxFrame = enc
	}
	for _, a := range r.active {
		st.Active = append(st.Active, SignalState{TxID: a.tx.TxID, PowerMW: a.powerMW})
	}
	if r.locked != nil {
		st.LockedTxID = r.locked.TxID
	}
	return st, nil
}

// RestoreState overwrites the radio's mutable state from a checkpoint.
// resolve maps a TxID back to the live *Transmission reconstructed by
// the medium (or shard) restore pass; it must return the same pointer
// for the same ID so in-set identity comparisons keep working. A state
// no run could have exported (a negative weak count, a total power that
// is not a non-negative number, an active list out of TxID order — which
// findActive's binary search would silently miss on) is refused
// before anything is written.
func (r *Radio) RestoreState(st RadioState, resolve func(txID uint64) (*Transmission, error)) error {
	if st.WeakN < 0 {
		return fmt.Errorf("phy: radio %d weak signal count %d is negative", r.id, st.WeakN)
	}
	if !(st.TotalMW >= 0) {
		return fmt.Errorf("phy: radio %d total power %v mW is not a non-negative number", r.id, st.TotalMW)
	}
	for i := 1; i < len(st.Active); i++ {
		if st.Active[i-1].TxID >= st.Active[i].TxID {
			return fmt.Errorf("phy: radio %d active signals not in ascending TxID order (%d before %d)", r.id, st.Active[i-1].TxID, st.Active[i].TxID)
		}
	}
	r.transmitting = st.Transmitting
	r.txFrame = nil
	if st.TxFrame != nil {
		f, err := frame.UnmarshalState(st.TxFrame)
		if err != nil {
			return fmt.Errorf("phy: radio %d tx frame: %w", r.id, err)
		}
		r.txFrame = f
	}
	r.active = r.active[:0]
	for _, s := range st.Active {
		tx, err := resolve(s.TxID)
		if err != nil {
			return fmt.Errorf("phy: radio %d active signal: %w", r.id, err)
		}
		r.active = append(r.active, activeSignal{tx: tx, powerMW: s.PowerMW})
	}
	r.weakN = st.WeakN
	r.totalMW = st.TotalMW
	r.locked = nil
	if st.LockedTxID != 0 {
		tx, err := resolve(st.LockedTxID)
		if err != nil {
			return fmt.Errorf("phy: radio %d locked signal: %w", r.id, err)
		}
		r.locked = tx
	}
	r.lockedMW = st.LockedMW
	r.lockLogSucc = st.LockLogSucc
	r.segStart = st.SegStart
	r.carrierBusy = st.CarrierBusy
	r.csMW = st.CSMW
	r.rng.SetState(st.RNG)
	r.stats = st.Stats
	return nil
}

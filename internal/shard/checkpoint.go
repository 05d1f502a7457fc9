package shard

import (
	"encoding/json"
	"fmt"

	"repro/internal/phy"
	"repro/internal/sim"
)

// Checkpoint surface of the sharded engine: one sub-checkpoint per
// shard (its agenda and its embedded shardState) stitched together with
// the engine's own engineState and every radio's RadioState, each stored
// as it is. A multi-shard engine can only be cut at a window edge — that
// is the one point where every outbox parity is drained and every
// cross-shard signal already lives in the receiving shard's agenda as a
// remoteTx event, so the per-shard agendas plus radio states are the
// complete picture.
//
// Transmission identity is resolved per shard: every in-flight signal
// a shard's radios can reference appears in that shard's agenda —
// local fan-outs as *phy.Transmission end events, cross-shard signals
// as *remoteTx edge events — and the same TxID deliberately
// materialises as distinct objects in distinct shards (the receiving
// shard owns an independent copy), so each shard decodes its own
// TxID → object registry and its radios resolve against only that.

// shardArg is the encoded form of a shard-owned agenda event argument:
// exactly one of Tx and Remote is set. A cross-shard signal is its
// receiver-frame (already W-shifted) transmission and whether its start
// edge fired; its walk list is structural (inFrom[From]) and rebuilt on
// decode.
type shardArg struct {
	Tx      *phy.TxState `json:"tx,omitempty"`
	Remote  *phy.TxState `json:"remote,omitempty"`
	Started bool         `json:"started,omitempty"`
}

// ShardState is one shard's sub-checkpoint.
type ShardState struct {
	Sched sim.SchedulerState `json:"sched"`
	shardState
}

// EngineState is the complete engine in checkpoint form. Window and
// Assign are structural but recorded for validation: restoring into an
// engine with a different window or partition would silently misplace
// every event.
type EngineState struct {
	engineState
	Window sim.Time         `json:"window"`
	Assign []int            `json:"assign"`
	Shards []ShardState     `json:"shards"`
	Radios []phy.RadioState `json:"radios"`
}

// encodeShardArg encodes the two shard-owned event shapes.
func (s *Shard) encodeShardArg(arg any) (json.RawMessage, error) {
	switch v := arg.(type) {
	case *phy.Transmission:
		ts := phy.ExportTransmission(v)
		return json.Marshal(shardArg{Tx: &ts})
	case *remoteTx:
		ts := phy.ExportTransmission(&v.tx)
		return json.Marshal(shardArg{Remote: &ts, Started: v.started})
	default:
		return nil, fmt.Errorf("shard %d: unencodable event arg %T", s.idx, arg)
	}
}

// decodeShardArg inverts encodeShardArg, registering every
// materialised transmission object in txs under its TxID so this
// shard's radios can resolve their active/locked pointers.
func (s *Shard) decodeShardArg(enc json.RawMessage, txs map[uint64]*phy.Transmission) (any, error) {
	var a shardArg
	if err := json.Unmarshal(enc, &a); err != nil {
		return nil, fmt.Errorf("shard %d: bad event arg: %w", s.idx, err)
	}
	n := len(s.eng.radios)
	switch {
	case a.Tx != nil:
		tx := new(phy.Transmission)
		if err := a.Tx.Restore(tx, n); err != nil {
			return nil, err
		}
		if s.eng.assign[tx.From] != s.idx {
			return nil, fmt.Errorf("shard %d: local signal from node %d it does not host", s.idx, tx.From)
		}
		txs[tx.TxID] = tx
		return tx, nil
	case a.Remote != nil:
		rt := new(remoteTx)
		if err := a.Remote.Restore(&rt.tx, n); err != nil {
			return nil, err
		}
		rt.list = s.inFrom[rt.tx.From]
		rt.started = a.Started
		txs[rt.tx.TxID] = &rt.tx
		return rt, nil
	default:
		return nil, fmt.Errorf("shard %d: event arg encodes no known shape", s.idx)
	}
}

// ExportState captures the engine. encode translates agenda events NOT
// owned by a shard itself — MAC stations, traffic sources — exactly as
// sim.EncodeFunc does for the serial engine; shard-owned events are
// encoded internally under the reserved owner key "shard".
//
// A multi-shard engine must be cut at a window edge: that is the only
// point where the outboxes are provably drained. Any other clock is a
// caller bug and errors out.
func (e *Engine) ExportState(encode sim.EncodeFunc) (EngineState, error) {
	if len(e.shards) > 1 && e.Clock%window != 0 {
		return EngineState{}, fmt.Errorf("shard: checkpoint at t=%v is not on a window edge (W=%v); advance Run to a multiple of the window first", e.Clock, window)
	}
	st := EngineState{
		engineState: e.engineState,
		Window:      window,
		Assign:      e.assign,
		Shards:      make([]ShardState, len(e.shards)),
		Radios:      make([]phy.RadioState, len(e.radios)),
	}
	for i, sh := range e.shards {
		for p := 0; p < 2; p++ {
			for d, box := range sh.outbox[p] {
				if len(box) > 0 {
					return EngineState{}, fmt.Errorf("shard %d: outbox for shard %d not drained at t=%v; checkpoint cut outside the parity protocol", sh.idx, d, e.Clock)
				}
			}
		}
		sched, err := sh.sched.ExportState(func(target sim.EventHandler, arg any) (string, json.RawMessage, error) {
			if target == sim.EventHandler(sh) {
				enc, err := sh.encodeShardArg(arg)
				return "shard", enc, err
			}
			return encode(target, arg)
		})
		if err != nil {
			return EngineState{}, fmt.Errorf("shard %d: %w", sh.idx, err)
		}
		st.Shards[i] = ShardState{Sched: sched, shardState: sh.shardState}
	}
	for i, r := range e.radios {
		st.Radios[i] = r.RadioState
	}
	return st, nil
}

// RestoreState overwrites the engine with a captured state. decode
// translates non-shard-owned events back to live handlers, mirroring
// ExportState's encode. Radio states are restored after every shard's
// agenda has been decoded, resolving transmission pointers against the
// owning shard's freshly materialised registry. Component timers (MACs,
// sources) must be re-attached by their owners afterwards, per shard.
func (e *Engine) RestoreState(st EngineState, decode sim.DecodeFunc) error {
	if st.Window != window {
		return fmt.Errorf("shard: checkpoint window %v does not match engine window %v", st.Window, window)
	}
	if len(st.Shards) != len(e.shards) {
		return fmt.Errorf("shard: checkpoint has %d shards, engine has %d", len(st.Shards), len(e.shards))
	}
	if len(st.Radios) != len(e.radios) {
		return fmt.Errorf("shard: checkpoint has %d radios, engine has %d", len(st.Radios), len(e.radios))
	}
	if len(st.Assign) != len(e.assign) {
		return fmt.Errorf("shard: checkpoint partitions %d nodes, engine %d", len(st.Assign), len(e.assign))
	}
	for i, a := range st.Assign {
		if a != e.assign[i] {
			return fmt.Errorf("shard: checkpoint assigns node %d to shard %d, engine to %d; topology or flow set differs", i, a, e.assign[i])
		}
	}
	registries := make([]map[uint64]*phy.Transmission, len(e.shards))
	for i, sh := range e.shards {
		txs := make(map[uint64]*phy.Transmission)
		registries[i] = txs
		err := sh.sched.RestoreState(st.Shards[i].Sched, func(owner string, enc json.RawMessage) (sim.EventHandler, any, error) {
			if owner == "shard" {
				arg, err := sh.decodeShardArg(enc, txs)
				return sh, arg, err
			}
			return decode(owner, enc)
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
		sh.shardState = st.Shards[i].shardState
		sh.txFree = sh.txFree[:0]
		sh.rtFree = sh.rtFree[:0]
		for p := 0; p < 2; p++ {
			for d := range sh.outbox[p] {
				sh.outbox[p][d] = sh.outbox[p][d][:0]
			}
		}
	}
	for i, r := range e.radios {
		if err := r.RestoreState(st.Radios[i], registries[e.assign[i]]); err != nil {
			return fmt.Errorf("shard %d: %w", e.assign[i], err)
		}
	}
	e.engineState = st.engineState
	return nil
}

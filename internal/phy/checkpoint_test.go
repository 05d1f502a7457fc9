package phy

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// midReception drives a radio into a state with every checkpointed
// field live: locked onto tx 1, tx 2 decodable but missed, two
// sub-sensitivity signals on the air, a cs@ override, counters moved.
// It returns the radio and the transmissions a resume must resolve.
func midReception(t *testing.T) (*Radio, map[uint64]*Transmission) {
	t.Helper()
	r, _, _, sched := testRadio(t, DefaultParams())
	r.SetCSThresholdDBm(-95)
	txs := map[uint64]*Transmission{}
	arrive := func(id uint64, dbm float64) {
		txs[id] = testTx(id, int(id))
		r.Arrive(txs[id], radio.DBmToMW(dbm))
		sched.Run(sched.Now() + 50*sim.Microsecond)
	}
	arrive(1, -60)
	arrive(2, -85)
	arrive(3, -100)
	arrive(4, -97)
	if r.locked != txs[1] || len(r.active) != 2 || r.weakN != 2 {
		t.Fatalf("fixture drift: locked=%v active=%d weak=%d", r.locked, len(r.active), r.weakN)
	}
	return r, txs
}

func resolver(txs map[uint64]*Transmission) func(uint64) (*Transmission, error) {
	return func(id uint64) (*Transmission, error) {
		if tx, ok := txs[id]; ok {
			return tx, nil
		}
		return nil, fmt.Errorf("no transmission %d", id)
	}
}

// TestRadioStateRoundTrip: export → JSON → restore into a fresh radio
// reproduces the state exactly, and the two radios then finish the
// reception identically — weak departures included, which the restored
// radio can only get right from the exported count.
func TestRadioStateRoundTrip(t *testing.T) {
	a, txs := midReception(t)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if st.WeakN != 2 || len(st.Active) != 2 || st.LockedTxID != 1 {
		t.Fatalf("exported weak=%d active=%d locked=%d, want 2, 2, 1", st.WeakN, len(st.Active), st.LockedTxID)
	}
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var dec RadioState
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	b, hb, _, _ := testRadio(t, DefaultParams())
	b.sched = a.sched // one clock for both
	if err := b.RestoreState(dec, resolver(txs)); err != nil {
		t.Fatal(err)
	}
	again, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("state changed across a round trip:\n  %+v\n  %+v", st, again)
	}
	if b.ActiveSignals() != 4 {
		t.Errorf("ActiveSignals = %d after restore, want 4 (2 active + 2 weak)", b.ActiveSignals())
	}
	ha := a.handler.(*recHandler)
	for _, step := range []struct {
		id  uint64
		dbm float64
	}{{3, -100}, {2, -85}, {1, -60}, {4, -97}} {
		a.sched.Run(a.sched.Now() + 100*sim.Microsecond)
		for _, r := range []*Radio{a, b} {
			r.Depart(txs[step.id], radio.DBmToMW(step.dbm))
		}
		if math.Float64bits(a.totalMW) != math.Float64bits(b.totalMW) || a.Stats() != b.Stats() || a.rng.State() != b.rng.State() {
			t.Fatalf("after tx %d departs: original totalMW=%g %+v, restored totalMW=%g %+v", step.id, a.totalMW, a.Stats(), b.totalMW, b.Stats())
		}
	}
	if len(ha.frames)+len(ha.corrupt) != 1 || len(ha.frames) != len(hb.frames) || len(ha.corrupt) != len(hb.corrupt) {
		t.Errorf("reception outcomes differ: original %d/%d, restored %d/%d decoded/corrupt", len(ha.frames), len(ha.corrupt), len(hb.frames), len(hb.corrupt))
	}
	if b.totalMW != 0 || b.ActiveSignals() != 0 {
		t.Errorf("restored radio ends with totalMW=%g and %d signals, want a quiet radio", b.totalMW, b.ActiveSignals())
	}
}

// TestRestoreStateRejectsDamage: states no run could have exported
// come back as a phy error naming the radio, and the radio is left as
// it was.
func TestRestoreStateRejectsDamage(t *testing.T) {
	src, txs := midReception(t)
	good, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(*RadioState)
		want   string
	}{
		{"negative weak count", func(st *RadioState) { st.WeakN = -1 }, "weak signal count"},
		{"NaN total power", func(st *RadioState) { st.TotalMW = math.NaN() }, "total power"},
		{"negative total power", func(st *RadioState) { st.TotalMW = -1e-9 }, "total power"},
		{"active list shuffled", func(st *RadioState) {
			st.Active = []SignalState{st.Active[1], st.Active[0]}
		}, "ascending TxID"},
		{"active entry repeated", func(st *RadioState) {
			st.Active = []SignalState{st.Active[0], st.Active[0]}
		}, "ascending TxID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			st.Active = append([]SignalState(nil), good.Active...)
			tc.damage(&st)
			r, _, _, _ := testRadio(t, DefaultParams())
			before, err := r.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			err = r.RestoreState(st, resolver(txs))
			if err == nil || !strings.HasPrefix(err.Error(), "phy: radio 0 ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a \"phy: radio 0 …\" error mentioning %q", err, tc.want)
			}
			after, err := r.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Error("a refused restore modified the radio")
			}
		})
	}
}

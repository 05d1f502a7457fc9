package phy

import (
	"encoding/json"
	"math"
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
	if r.Locked != txs[1] || len(r.Active) != 2 || r.WeakN != 2 {
		t.Fatalf("fixture drift: locked=%v active=%d weak=%d", r.Locked, len(r.Active), r.WeakN)
	}
	return r, txs
}

// exported is a radio's checkpoint bytes.
func exported(t *testing.T, r *Radio) string {
	t.Helper()
	b, err := json.Marshal(&r.RadioState)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRadioStateRoundTrip: export → JSON → restore into a fresh radio
// reproduces the state exactly — the same bytes exported again — and the
// two radios then finish the reception identically, weak departures
// included, which the restored radio can only get right from the
// exported count.
func TestRadioStateRoundTrip(t *testing.T) {
	a, txs := midReception(t)
	st := exported(t, a)
	var dec RadioState
	if err := json.Unmarshal([]byte(st), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.WeakN != 2 || len(dec.Active) != 2 || dec.Locked.TxID != 1 {
		t.Fatalf("exported weak=%d active=%d locked=%d, want 2, 2, 1", dec.WeakN, len(dec.Active), dec.Locked.TxID)
	}
	b, hb, _, _ := testRadio(t, DefaultParams())
	b.sched = a.sched // one clock for both
	if err := b.RestoreState(dec, txs); err != nil {
		t.Fatal(err)
	}
	if again := exported(t, b); again != st {
		t.Fatalf("state changed across a round trip:\n  %s\n  %s", st, again)
	}
	if b.Locked != txs[1] || b.Active[0].Tx != txs[1] {
		t.Fatal("restored signals do not point at the agenda's transmissions")
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
		if math.Float64bits(a.TotalMW) != math.Float64bits(b.TotalMW) || a.Stats() != b.Stats() || a.RNG != b.RNG {
			t.Fatalf("after tx %d departs: original totalMW=%g %+v, restored totalMW=%g %+v", step.id, a.TotalMW, a.Stats(), b.TotalMW, b.Stats())
		}
	}
	if len(ha.frames)+len(ha.corrupt) != 1 || len(ha.frames) != len(hb.frames) || len(ha.corrupt) != len(hb.corrupt) {
		t.Errorf("reception outcomes differ: original %d/%d, restored %d/%d decoded/corrupt", len(ha.frames), len(ha.corrupt), len(hb.frames), len(hb.corrupt))
	}
	if b.TotalMW != 0 || b.ActiveSignals() != 0 {
		t.Errorf("restored radio ends with totalMW=%g and %d signals, want a quiet radio", b.TotalMW, b.ActiveSignals())
	}
}

// TestRestoreStateRejectsDamage: states no run could have exported
// come back as a phy error naming the radio, and the radio is left as
// it was.
func TestRestoreStateRejectsDamage(t *testing.T) {
	src, txs := midReception(t)
	good := src.RadioState
	cases := []struct {
		name   string
		damage func(*RadioState)
		want   string
	}{
		{"negative weak count", func(st *RadioState) { st.WeakN = -1 }, "weak signal count"},
		{"NaN total power", func(st *RadioState) { st.TotalMW = math.NaN() }, "total power"},
		{"negative total power", func(st *RadioState) { st.TotalMW = -1e-9 }, "total power"},
		{"active list shuffled", func(st *RadioState) {
			st.Active = []activeSignal{st.Active[1], st.Active[0]}
		}, "ascending TxID"},
		{"active entry repeated", func(st *RadioState) {
			st.Active = []activeSignal{st.Active[0], st.Active[0]}
		}, "ascending TxID"},
		{"signal with no agenda event", func(st *RadioState) { st.Locked = &Transmission{TxID: 99} }, "no agenda event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			st.Active = append([]activeSignal(nil), good.Active...)
			tc.damage(&st)
			r, _, _, _ := testRadio(t, DefaultParams())
			before := exported(t, r)
			err := r.RestoreState(st, txs)
			if err == nil || !strings.HasPrefix(err.Error(), "phy: radio 0 ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a \"phy: radio 0 …\" error mentioning %q", err, tc.want)
			}
			if after := exported(t, r); before != after {
				t.Error("a refused restore modified the radio")
			}
		})
	}
}

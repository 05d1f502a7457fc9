package phy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// upcall is one recorded Handler call in comparable form.
type upcall struct {
	kind  byte // 'F' OnFrame, 'X' OnCorrupt, 'T' OnTxDone, 'C' OnCarrier
	info  RxInfo
	power uint64 // Float64bits(info.PowerMW): NaN-safe equality
	busy  bool
}

type upcallLog struct{ calls []upcall }

func (l *upcallLog) rx(kind byte, info RxInfo) {
	u := upcall{kind: kind, info: info, power: math.Float64bits(info.PowerMW)}
	u.info.PowerMW = 0
	l.calls = append(l.calls, u)
}
func (l *upcallLog) OnFrame(_ frame.Frame, info RxInfo) { l.rx('F', info) }
func (l *upcallLog) OnCorrupt(info RxInfo)              { l.rx('X', info) }
func (l *upcallLog) OnTxDone(frame.Frame)               { l.calls = append(l.calls, upcall{kind: 'T'}) }
func (l *upcallLog) OnCarrier(busy bool)                { l.calls = append(l.calls, upcall{kind: 'C', busy: busy}) }

// Fuzz op kinds: byte 0 of each three-byte step, modulo fuzzOps.
// Arrivals hold two of the six values so schedules build up overlap.
const (
	fuzzArrive = iota
	fuzzArriveToo
	fuzzDepart
	fuzzToggleTx
	fuzzSetCS
	fuzzWait
	fuzzOps
)

// fuzzPowerMW spreads a byte over received powers that straddle the
// radio's sensitivity: the lower half of the byte range is interference
// only (−108 … −92 dBm), the upper half decodable (−92 … −41 dBm), 128
// is sensitivity exactly and 0 and 255 its two float neighbours.
func fuzzPowerMW(a byte, sensitivityMW float64) float64 {
	switch {
	case a == 0:
		return math.Nextafter(sensitivityMW, 0)
	case a == 255:
		return math.Nextafter(sensitivityMW, math.Inf(1))
	case a < 128:
		return radio.DBmToMW(-108 + float64(a)/8)
	default:
		return radio.DBmToMW(-92 + float64(a-128)*0.4)
	}
}

// FuzzInterferencePath is the differential proof behind Arrive/Depart:
// two radios with the same parameters and the same RNG seed are driven
// through one fuzz-derived schedule — overlapping arrivals on both
// sides of sensitivity, departures in any order, own transmissions that
// abort receptions, captures, carrier-sense thresholds above and below
// sensitivity — the reference through SignalStart/SignalEnd only, the
// other through the dispatching pair. After every step they must agree
// bit for bit on total power, reception state, counters, carrier sense,
// RNG state and the upcalls delivered.
//
// Each step is three bytes: op, a, b. The clock advances b>>3 µs after
// every step (zero-length segments included).
func FuzzInterferencePath(f *testing.F) {
	// Two weak signals, the first departs while the second is still on
	// the air, then a decodable frame is received over the residue: a
	// reset keyed on the active set alone zeroes totalMW too early.
	f.Add([]byte{
		fuzzArrive, 40, 8, fuzzArrive, 90, 8, fuzzDepart, 0, 8,
		fuzzArrive, 160, 80, fuzzWait, 20, 0, fuzzDepart, 1, 8, fuzzDepart, 0, 8,
	})
	// A weak arrival and departure inside a locked reception (segments
	// must close), then a capture, then a transmission aborting it.
	f.Add([]byte{
		fuzzArrive, 150, 64, fuzzArrive, 100, 64, fuzzWait, 5, 0, fuzzDepart, 1, 64,
		fuzzArrive, 250, 64, fuzzToggleTx, 0, 64, fuzzArrive, 30, 64, fuzzToggleTx, 0, 64,
		fuzzDepart, 0, 8, fuzzDepart, 0, 8, fuzzDepart, 0, 8,
	})
	// A cs@ threshold below sensitivity: weak arrivals alone, and their
	// sum, flip carrier sense; then the threshold moves above it.
	f.Add([]byte{
		fuzzSetCS, 20, 0, fuzzArrive, 10, 8, fuzzArrive, 60, 8, fuzzArrive, 0, 8,
		fuzzSetCS, 200, 8, fuzzArrive, 128, 8, fuzzArrive, 255, 8, fuzzDepart, 2, 8,
		fuzzDepart, 0, 8, fuzzDepart, 0, 8,
	})
	f.Add([]byte("interference is not a signal: most of what a node hears it can neither decode nor defer to"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		sched := sim.NewScheduler()
		ch := &stubChannel{}
		mk := func() (*Radio, *upcallLog) {
			r := NewRadio(0, DefaultParams(), sched, sim.NewRNG(7), ch)
			l := &upcallLog{}
			r.SetHandler(l)
			return r, l
		}
		ref, refLog := mk()
		got, gotLog := mk()

		type onAir struct {
			tx      *Transmission
			powerMW float64
		}
		var air []onAir
		var nextID, weak uint64
		depart := func(i int) {
			s := air[i]
			air = slices.Delete(air, i, i+1)
			ref.SignalEnd(s.tx)
			got.Depart(s.tx, s.powerMW)
		}
		check := func(step int) {
			t.Helper()
			refStats, gotStats := ref.Stats(), got.Stats()
			if gotStats.Weak != weak || refStats.Weak != 0 {
				t.Fatalf("step %d: Weak = %d (reference %d), want %d (0)", step, gotStats.Weak, refStats.Weak, weak)
			}
			gotStats.Weak = 0
			switch {
			case math.Float64bits(ref.TotalMW) != math.Float64bits(got.TotalMW):
				t.Fatalf("step %d: totalMW %x vs reference %x", step, math.Float64bits(got.TotalMW), math.Float64bits(ref.TotalMW))
			case refStats != gotStats:
				t.Fatalf("step %d: stats %+v vs reference %+v", step, gotStats, refStats)
			case ref.CarrierBusy() != got.CarrierBusy():
				t.Fatalf("step %d: CarrierBusy %v vs reference %v", step, got.CarrierBusy(), ref.CarrierBusy())
			case ref.RNG != got.RNG:
				t.Fatalf("step %d: RNG streams diverged", step)
			case ref.ActiveSignals() != got.ActiveSignals() || got.ActiveSignals() != len(air):
				t.Fatalf("step %d: ActiveSignals %d vs reference %d, %d on the air", step, got.ActiveSignals(), ref.ActiveSignals(), len(air))
			case ref.Locked != got.Locked || ref.SegStart != got.SegStart ||
				math.Float64bits(ref.LockedMW) != math.Float64bits(got.LockedMW) ||
				math.Float64bits(ref.LockLogSucc) != math.Float64bits(got.LockLogSucc):
				t.Fatalf("step %d: reception state diverged", step)
			case !slices.Equal(refLog.calls, gotLog.calls):
				t.Fatalf("step %d: upcalls\n  %+v\nvs reference\n  %+v", step, gotLog.calls, refLog.calls)
			}
		}

		step := 0
		for ; len(data) >= 3; data, step = data[3:], step+1 {
			op, a, b := data[0]%fuzzOps, data[1], data[2]
			switch op {
			case fuzzArrive, fuzzArriveToo:
				nextID++
				tx := testTx(nextID, int(nextID))
				tx.Rate = RateByID(RateID(b % uint8(len(rateTable))))
				tx.Start = sched.Now()
				p := fuzzPowerMW(a, sensitivityMW)
				if p < sensitivityMW {
					weak++
				}
				air = append(air, onAir{tx, p})
				ref.SignalStart(tx, p)
				got.Arrive(tx, p)
			case fuzzDepart:
				if len(air) > 0 {
					depart(int(a) % len(air))
				}
			case fuzzToggleTx:
				for _, r := range []*Radio{ref, got} {
					if r.Transmitting() {
						r.TxDone()
					} else {
						r.Transmit(testFrame(0), RateByID(Rate6Mbps))
					}
				}
			case fuzzSetCS:
				dbm := -108 + float64(a)/4 // −108 … −44 dBm; sensitivity is −92
				ref.SetCSThresholdDBm(dbm)
				got.SetCSThresholdDBm(dbm)
			case fuzzWait:
				sched.Run(sched.Now() + sim.Time(a)*20*sim.Microsecond)
			}
			check(step)
			sched.Run(sched.Now() + sim.Time(b>>3)*sim.Microsecond)
		}
		// Drain in arrival order: both accumulators must land on exactly 0.
		for len(air) > 0 {
			depart(0)
			check(step)
		}
		if ref.TotalMW != 0 || got.TotalMW != 0 {
			t.Fatalf("quiet radios hold totalMW %g (reference %g), want exactly 0", got.TotalMW, ref.TotalMW)
		}
	})
}

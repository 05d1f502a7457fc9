package csma

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The hand-computed timing table below uses the 802.11a constants the
// phy package pins: SIFS 16 µs, slot 9 µs, and at the 6 Mb/s base rate
// a 14-byte CTS/ACK flies for 44 µs, a 20-byte RTS for 52 µs, and a
// 1400-byte data frame for 1924 µs (at 12 Mb/s: 972 µs). An RTS
// reservation covers 3·SIFS + CTS + DATA + ACK.

func TestRTSNavDurations(t *testing.T) {
	cases := []struct {
		name         string
		rate         phy.RateID
		payloadBytes int
		want         uint16
	}{
		// 3·16 + 44 + 1924 + 44 = 2060 µs
		{"default 1400B", phy.Rate6Mbps, 1400, 2060},
		// 48 + 44 + 400 + 44 = 536 µs
		{"small 256B", phy.Rate6Mbps, 256, 536},
		// 48 + 44 + 972 + 44 = 1108 µs (data at 12 Mb/s, controls at 6)
		{"data at 12Mbps", phy.Rate12Mbps, 1400, 1108},
		// 48 + 44 + 80056 + 44 = 80192 µs: beyond the 16-bit field, clamped
		{"clamped at 16 bits", phy.Rate6Mbps, 60000, 65535},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Rate = tc.rate
			if got := cfg.RTSNavUS(tc.payloadBytes); got != tc.want {
				t.Errorf("RTSNavUS(%d) = %d µs, want %d", tc.payloadBytes, got, tc.want)
			}
		})
	}
}

func TestCTSNavDerivation(t *testing.T) {
	cases := []struct {
		name     string
		rtsNavUS uint16
		want     uint16
	}{
		// The CTS answering a default 1400-byte reservation: by CTS end,
		// SIFS + CTS airtime = 60 µs of the 2060 are spent.
		{"default 1400B", 2060, 2000},
		{"small 256B", 536, 476},
		// A reservation that expires during the CTS itself floors at 0
		// rather than wrapping the unsigned field.
		{"floors at zero", 60, 0},
		{"tiny remainder", 61, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CTSNavUS(tc.rtsNavUS); got != tc.want {
				t.Errorf("CTSNavUS(%d) = %d µs, want %d", tc.rtsNavUS, got, tc.want)
			}
		})
	}
}

// TestCTSTimeout pins SIFS + CTS + 2 slots = 16 + 44 + 18 = 78 µs.
func TestCTSTimeout(t *testing.T) {
	t.Run("controls at 6Mbps", func(t *testing.T) {
		if got, want := CTSTimeout(), 78*sim.Microsecond; got != want {
			t.Errorf("CTSTimeout() = %v, want %v", got, want)
		}
	})
}

// TestRTSCTSCleanLink pins the handshake's steady-state bookkeeping on
// a loss-free link: every exchange pairs an RTS with a CTS, nothing
// times out, nothing drops, and the handshake tax keeps goodput a
// little under the plain-DCF figure.
func TestRTSCTSCleanLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSCTS = true
	m, sched, rng := build([][]float64{
		{0, 70},
		{70, 0},
	}, 7)
	dur := 5 * sim.Second
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	rx.Meter = &stats.Meter{Start: dur / 5, End: dur}
	tx.SetSaturated(1)
	sched.Run(dur)

	st, rst := tx.Counters(), rx.Counters()
	if st.RtsSent == 0 || rst.CtsSent == 0 {
		t.Fatalf("handshake inert: %d RTS, %d CTS", st.RtsSent, rst.CtsSent)
	}
	if st.RtsSent != rst.CtsSent {
		t.Errorf("clean link: %d RTS vs %d CTS — every RTS should be answered", st.RtsSent, rst.CtsSent)
	}
	if st.CtsTimeouts != 0 || st.Dropped != 0 {
		t.Errorf("clean link saw %d CTS timeouts, %d drops", st.CtsTimeouts, st.Dropped)
	}
	got := rx.Meter.Mbps()
	if got < 4.5 || got > 5.5 {
		t.Errorf("RTS/CTS goodput = %.2f Mb/s, want ≈4.8–5.2 (plain DCF minus handshake tax)", got)
	}
}

// TestRTSRetryLimitDrops pins the CTS side of the retry path: an
// addressee that never answers costs RetryLimit+1 CTS timeouts, after
// which the packet is dropped and the window is back at CWMin.
func TestRTSRetryLimitDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSCTS = true
	m, sched, rng := build([][]float64{
		{0, 70},
		{70, 0},
	}, 7)
	// No station attaches to node 1, so no RTS is ever answered.
	tx := New(0, cfg, m, rng.Stream(10))
	tx.Enqueue(1, 1)
	sched.Run(2 * sim.Second)

	st := tx.Counters()
	if st.CtsTimeouts != RetryLimit+1 || st.RtsSent != RetryLimit+1 {
		t.Errorf("%d CTS timeouts over %d RTS, want %d of each", st.CtsTimeouts, st.RtsSent, RetryLimit+1)
	}
	if st.Dropped != 1 || st.Sent != 0 {
		t.Errorf("dropped %d and sent %d data frames, want 1 and 0", st.Dropped, st.Sent)
	}
	if tx.Pending || tx.CW != CWMin {
		t.Errorf("after the drop: pending %v, CW %d, want false and %d", tx.Pending, tx.CW, CWMin)
	}
}

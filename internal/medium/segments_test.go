package medium

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// These tests pin the segment-wise SINR integration of phy.Radio: the
// decode probability of a frame must reflect exactly the portions of its
// airtime that overlapped interference.

// marginalInterfererLoss positions an interferer so that, while it
// transmits, the victim's SINR sits in the PER waterfall: full overlap
// destroys the frame, no overlap leaves it clean, partial overlap is
// in between.
func partialOverlapSetup(t *testing.T, overlapFrac float64, seed uint64) (decoded bool) {
	t.Helper()
	// A(0)→B(1) at -60 dBm. I(2) is heard at B at -63 dBm: SINR ≈ 3 dB
	// during overlap → BER ≈ catastrophic for 1400 B; silent otherwise.
	m, recs, sched := testMedium(t, [][]float64{
		{0, 70, offAir},
		{70, 0, 73},
		{offAir, 73, 0},
	})
	_ = recs
	rate := phy.RateByID(phy.Rate6Mbps)
	f := dataFrame(0, 1)
	air := phy.Airtime(rate, f.WireSize())

	m.Radio(0).Transmit(f, rate)
	if overlapFrac > 0 {
		// Interferer transmits so that its frame covers the LAST
		// overlapFrac of A's frame (and beyond).
		start := sim.Time(float64(air) * (1 - overlapFrac))
		sched.Post(start, call(func() {
			m.Radio(2).Transmit(dataFrame(2, 1), rate)
		}), nil)
	}
	sched.RunAll()
	return len(recs[1].frames) == 1
}

func TestSegmentsNoOverlapDecodes(t *testing.T) {
	if !partialOverlapSetup(t, 0, 1) {
		t.Error("clean frame failed to decode")
	}
}

func TestSegmentsFullOverlapDestroys(t *testing.T) {
	// Interference covering ~the whole frame: decode must fail.
	ok := 0
	for seed := uint64(1); seed <= 10; seed++ {
		if partialOverlapSetup(t, 0.99, seed) {
			ok++
		}
	}
	if ok > 0 {
		t.Errorf("decoded %d/10 frames under full-frame 3 dB interference", ok)
	}
}

func TestSegmentsTinyOverlapMostlySurvives(t *testing.T) {
	// Interference covering only the last 2% of the frame: the exposed
	// bits are few, so most frames survive. (This is the salvage physics
	// behind Figure 5: damage is confined to the overlapped span.)
	ok := 0
	for seed := uint64(1); seed <= 20; seed++ {
		if partialOverlapSetup(t, 0.02, seed) {
			ok++
		}
	}
	if ok < 8 {
		t.Errorf("only %d/20 frames survived a 2%% overlap; segmentation too pessimistic", ok)
	}
}

func TestSegmentsMonotoneInOverlap(t *testing.T) {
	// More overlap must never increase the survival count.
	survival := func(frac float64) int {
		ok := 0
		for seed := uint64(1); seed <= 20; seed++ {
			if partialOverlapSetup(t, frac, seed) {
				ok++
			}
		}
		return ok
	}
	prev := 21
	for _, frac := range []float64{0.02, 0.3, 0.7, 0.99} {
		got := survival(frac)
		if got > prev {
			t.Errorf("survival increased from %d to %d at overlap %.2f", prev, got, frac)
		}
		prev = got
	}
}

func TestFigure5HeaderTrailerSalvage(t *testing.T) {
	// The Figure 5 experiment in miniature: two equal-length virtual
	// packets (header + data + trailer as separate frames) collide with a
	// partial offset at a receiver that hears both at comparable power.
	// The header of the first and the trailer of the second (the
	// non-overlapped edges) survive far more often than the middles.
	m, recs, sched := testMedium(t, [][]float64{
		{0, 70, offAir},
		{70, 0, 71},
		{offAir, 71, 0},
	})
	rate := phy.RateByID(phy.Rate6Mbps)
	hdr := func(src int, seq uint32, trailer bool) *frame.Control {
		return &frame.Control{Trailer: trailer, Src: frame.AddrFromID(src),
			Dst: frame.AddrFromID(1), Seq: seq, TxTimeMicros: 4000}
	}
	burst := func(src int, at sim.Time, seq uint32) {
		// header → data → trailer back-to-back via chained scheduling.
		sched.Post(at, call(func() {
			r := m.Radio(src)
			rec := recs[src]
			rec.hookTx = func(f frame.Frame) {
				switch f.(type) {
				case *frame.Control:
					if f.(*frame.Control).Trailer {
						return
					}
					r.Transmit(&frame.Data{Src: frame.AddrFromID(src),
						Dst: frame.AddrFromID(1), VSeq: seq, PayloadLen: 1400}, rate)
				case *frame.Data:
					r.Transmit(hdr(src, seq, true), rate)
				}
			}
			r.Transmit(hdr(src, seq, false), rate)
		}), nil)
	}
	headerA, trailerB := 0, 0
	const rounds = 30
	for i := 0; i < rounds; i++ {
		base := sim.Time(i) * 20 * sim.Millisecond
		burst(0, base, uint32(i))
		// Second burst starts mid-way through the first one's data frame.
		burst(2, base+900*sim.Microsecond, uint32(i))
	}
	sched.RunAll()
	for i, f := range recs[1].frames {
		if c, ok := f.(*frame.Control); ok {
			if !c.Trailer && recs[1].infos[i].From == 0 {
				headerA++
			}
			if c.Trailer && recs[1].infos[i].From == 2 {
				trailerB++
			}
		}
	}
	// The first sender's header flies before the collision starts; the
	// second sender's trailer flies after the first burst ended.
	if headerA < rounds*8/10 {
		t.Errorf("first sender's header survived only %d/%d collisions", headerA, rounds)
	}
	if trailerB < rounds*8/10 {
		t.Errorf("second sender's trailer survived only %d/%d collisions", trailerB, rounds)
	}
}

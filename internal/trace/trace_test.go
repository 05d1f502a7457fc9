package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

func TestRingBufferEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.add(Event{At: sim.Time(i), Node: i})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	// Oldest-first: nodes 2, 3, 4.
	for i, e := range evs {
		if e.Node != i+2 {
			t.Errorf("event %d node = %d, want %d", i, e.Node, i+2)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestZeroCapacityClamps(t *testing.T) {
	tr := New(0)
	tr.add(Event{Node: 1})
	tr.add(Event{Node: 2})
	if tr.Len() != 1 || tr.Events()[0].Node != 2 {
		t.Error("capacity clamp broken")
	}
}

func TestWrappedCMAPNodeTimeline(t *testing.T) {
	// Trace a clean CMAP link end to end and check the timeline contains
	// the protocol's fingerprints: headers, data, trailers, ACKs.
	sched := sim.NewScheduler()
	rng := sim.NewRNG(5)
	m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: [][]float64{
		{0, 70},
		{70, 0},
	}}, make([]geo.Point, 2), rng.Stream(1))
	cfg := core.DefaultConfig()
	tx := core.New(0, cfg, m, rng.Stream(10))
	rx := core.New(1, cfg, m, rng.Stream(11))

	tr := New(4096)
	m.Radio(0).SetHandler(tr.Wrap(0, tx, sched))
	m.Radio(1).SetHandler(tr.Wrap(1, rx, sched))

	tx.SetSaturated(1)
	sched.Run(sim.Second)

	decoded := 0
	for _, e := range tr.Events() {
		if e.Op == OpRx && e.Node == 1 {
			decoded++
		}
	}
	if decoded == 0 {
		t.Fatal("receiver decoded nothing in the trace")
	}
	dump := tr.Dump()
	for _, want := range []string{"header", "trailer", "data", "ack", "vseq=", "cum="} {
		if !strings.Contains(dump, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// The wrapped handler must not change protocol behaviour: goodput
	// flows (receiver delivered packets).
	if rx.Counters().Delivered == 0 {
		t.Error("wrapping the handler broke delivery")
	}
	// Events are time-ordered.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace events out of order")
		}
	}
}

func TestEventStrings(t *testing.T) {
	cases := []Event{
		{At: sim.Millisecond, Node: 1, Op: OpRx, Kind: frame.KindData, From: 2, PowerDBm: -60, Detail: "seq=1"},
		{At: sim.Millisecond, Node: 1, Op: OpCorrupt, From: 3, PowerDBm: -80},
		{At: sim.Millisecond, Node: 1, Op: OpTxDone, Kind: frame.KindAck, Detail: "cum=5"},
		{At: sim.Millisecond, Node: 1, Op: OpCarrier, Busy: true},
	}
	for _, e := range cases {
		if e.String() == "" {
			t.Errorf("empty String for op %v", e.Op)
		}
	}
	if OpRx.String() != "rx" || OpCarrier.String() != "carrier" || Op(99).String() != "op(99)" {
		t.Error("op mnemonics wrong")
	}
}

func TestDetailCoversAllFrames(t *testing.T) {
	frames := []frame.Frame{
		&frame.Control{Seq: 1},
		&frame.Data{PktSeq: 2},
		&frame.Ack{CumSeq: 3},
		&frame.InterfererList{},
		&frame.Dot11Data{Seq: 4},
		&frame.Dot11Ack{Seq: 5},
	}
	for _, f := range frames {
		if detail(f) == "" {
			t.Errorf("no detail for %v", f.Kind())
		}
	}
}

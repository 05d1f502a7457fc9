package trace

import (
	"fmt"
	"strings"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Op is the kind of a traced event.
type Op uint8

// Event kinds.
const (
	OpRx      Op = iota // frame decoded
	OpCorrupt           // frame locked but not decoded
	OpTxDone            // own transmission completed
	OpCarrier           // carrier-sense edge
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpRx:
		return "rx"
	case OpCorrupt:
		return "corrupt"
	case OpTxDone:
		return "tx-done"
	case OpCarrier:
		return "carrier"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one recorded link-layer event.
type Event struct {
	At   sim.Time
	Node int
	Op   Op
	// Kind is the frame kind for rx/tx events.
	Kind frame.Kind
	// From is the transmitter for rx/corrupt events.
	From int
	// PowerDBm is the received power for rx/corrupt events.
	PowerDBm float64
	// Busy is the new carrier state for carrier events.
	Busy bool
	// Detail carries frame-specific fields (sequence numbers etc.).
	Detail string
}

// String renders the event as one timeline line.
func (e Event) String() string {
	switch e.Op {
	case OpRx, OpCorrupt:
		return fmt.Sprintf("%12v node%-3d %-8s %-15s from=%d %5.1fdBm %s",
			e.At, e.Node, e.Op, e.Kind, e.From, e.PowerDBm, e.Detail)
	case OpTxDone:
		return fmt.Sprintf("%12v node%-3d %-8s %-15s %s", e.At, e.Node, e.Op, e.Kind, e.Detail)
	default:
		return fmt.Sprintf("%12v node%-3d %-8s busy=%v", e.At, e.Node, e.Op, e.Busy)
	}
}

// Tracer is a bounded ring of events shared by any number of wrapped
// nodes.
type Tracer struct {
	events []Event
	next   int
	full   bool
}

// New creates a tracer holding the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Tracer{events: make([]Event, 0, capacity)}
}

// add appends an event, evicting the oldest when full.
func (t *Tracer) add(e Event) {
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, e)
		return
	}
	t.full = true
	t.events[t.next] = e
	t.next = (t.next + 1) % cap(t.events)
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return len(t.events) }

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if !t.full {
		return append([]Event(nil), t.events...)
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Dump renders the whole timeline.
func (t *Tracer) Dump() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// detail extracts the interesting fields of a frame for the timeline.
func detail(f frame.Frame) string {
	switch ff := f.(type) {
	case *frame.Control:
		return fmt.Sprintf("vseq=%d txtime=%dµs", ff.Seq, ff.TxTimeMicros)
	case *frame.Data:
		return fmt.Sprintf("seq=%d vseq=%d idx=%d", ff.PktSeq, ff.VSeq, ff.Index)
	case *frame.Ack:
		return fmt.Sprintf("cum=%d loss=%.2f", ff.CumSeq, ff.LossRate)
	case *frame.InterfererList:
		return fmt.Sprintf("entries=%d relayed=%v", len(ff.Entries), ff.Relayed)
	case *frame.Dot11Data:
		return fmt.Sprintf("seq=%d retry=%v", ff.Seq, ff.Retry)
	case *frame.Dot11Ack:
		return fmt.Sprintf("seq=%d", ff.Seq)
	default:
		return ""
	}
}

// handler decorates an inner phy.Handler with event recording.
type handler struct {
	t     *Tracer
	node  int
	inner phy.Handler
	sched *sim.Scheduler
}

// Wrap returns a phy.Handler that records every upcall for node before
// forwarding it to inner. Install it with radio.SetHandler AFTER creating
// the MAC node (which installs itself).
func (t *Tracer) Wrap(node int, inner phy.Handler, sched *sim.Scheduler) phy.Handler {
	return &handler{t: t, node: node, inner: inner, sched: sched}
}

func (h *handler) OnFrame(f frame.Frame, info phy.RxInfo) {
	h.t.add(Event{
		At: h.sched.Now(), Node: h.node, Op: OpRx, Kind: f.Kind(),
		From: info.From, PowerDBm: info.PowerDBm(), Detail: detail(f),
	})
	h.inner.OnFrame(f, info)
}

func (h *handler) OnCorrupt(info phy.RxInfo) {
	h.t.add(Event{
		At: h.sched.Now(), Node: h.node, Op: OpCorrupt,
		From: info.From, PowerDBm: info.PowerDBm(),
	})
	h.inner.OnCorrupt(info)
}

func (h *handler) OnTxDone(f frame.Frame) {
	h.t.add(Event{
		At: h.sched.Now(), Node: h.node, Op: OpTxDone, Kind: f.Kind(), Detail: detail(f),
	})
	h.inner.OnTxDone(f)
}

func (h *handler) OnCarrier(busy bool) {
	h.t.add(Event{At: h.sched.Now(), Node: h.node, Op: OpCarrier, Busy: busy})
	h.inner.OnCarrier(busy)
}

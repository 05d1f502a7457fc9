package stats

import (
	"encoding/json"

	"repro/internal/sim"
)

// Checkpoint surfaces: the recorders keep their samples unexported (the
// Percentile cache invariant lives behind Add), so checkpointing gets
// explicit State/Restore pairs instead of raw field access. Sample
// order and the sorted flag are both captured — Percentile sorts in
// place, and a resumed run must reproduce the exact same memory state,
// not just the same multiset.

// DistState is a Dist in checkpoint form.
type DistState struct {
	Xs     []float64 `json:"xs,omitempty"`
	Sorted bool      `json:"sorted,omitempty"`
}

// State captures the distribution, including current sample order.
func (d *Dist) State() DistState {
	return DistState{Xs: append([]float64(nil), d.xs...), Sorted: d.sorted}
}

// Restore overwrites the distribution with a captured state.
func (d *Dist) Restore(st DistState) {
	d.xs = append(d.xs[:0], st.Xs...)
	d.sorted = st.Sorted
}

// LatencyState is a Latency recorder in checkpoint form.
type LatencyState struct {
	W Window    `json:"w"`
	D DistState `json:"d"`
}

// State captures the recorder.
func (l *Latency) State() LatencyState {
	return LatencyState{W: l.W, D: l.d.State()}
}

// Restore overwrites the recorder with a captured state.
func (l *Latency) Restore(st LatencyState) {
	l.W = st.W
	l.d.Restore(st.D)
}

// MarshalJSON writes the recorder's checkpoint state, so a result
// struct that holds a Latency (experiments.FlowResult in a campaign
// manifest) round-trips through encoding/json samples and all.
func (l Latency) MarshalJSON() ([]byte, error) { return json.Marshal(l.State()) }

// UnmarshalJSON restores what MarshalJSON wrote.
func (l *Latency) UnmarshalJSON(b []byte) error {
	var st LatencyState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	l.Restore(st)
	return nil
}

// MeterState is a goodput Meter in checkpoint form.
type MeterState struct {
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Packets uint64   `json:"packets"`
	Bytes   uint64   `json:"bytes"`
}

// State captures the meter.
func (m *Meter) State() MeterState {
	return MeterState{Start: m.Start, End: m.End, Packets: m.packets, Bytes: m.bytes}
}

// Restore overwrites the meter with a captured state.
func (m *Meter) Restore(st MeterState) {
	m.Start, m.End = st.Start, st.End
	m.packets, m.bytes = st.Packets, st.Bytes
}

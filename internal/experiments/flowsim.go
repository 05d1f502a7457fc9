package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// FlowSim is one flow experiment held open, and the only place a flow
// simulation is wired: scheduler or sharded engine, medium, mobility
// manager, MAC stations, meters and traffic sources. Every figure,
// sweep, golden trace and CLI run goes through NewFlowSim, so arms
// compare over identical wiring. Every component reference is retained,
// so the simulation can be stopped at any virtual time, its complete
// state captured through Save, and a fresh process's skeleton
// overwritten back to that exact state through Resume.
//
// Checkpointing works by "rebuild skeleton, restore mutable state": the
// resuming process constructs a FlowSim from the same configuration
// (whatever that construction schedules or draws is discarded by the
// wholesale restore), then Resume overwrites the agenda, the radio and
// MAC state, the sources, and every recorder. A configuration hash
// stored in the checkpoint guards against resuming under a skeleton
// that differs.
type FlowSim struct {
	cfg       FlowSimConfig
	tb        *topo.Testbed
	saturated bool

	// Exactly one engine is set: the serial scheduler+medium pair, or
	// the sharded engine (cfg.Shards > 1).
	sched *sim.Scheduler
	m     *medium.Medium
	eng   *shard.Engine
	// mg drives node movement when cfg.Mobility is active (serial only).
	mg *mobility.Manager

	senders   []mac.Node
	receivers []mac.Node
	order     []int // distinct node ids in construction order
	nodes     map[int]mac.Node
	meters    []*stats.Meter
	lats      []*stats.Latency
	sources   []*traffic.Source

	// Checkpoint bookkeeping, derived on first use (ConfigHash, index):
	// a batch trial that never checkpoints pays nothing for it.
	hash   string
	owners map[sim.EventHandler]ownerRef
	byKey  map[string]ownerRef
}

// ownerRef names one event-owning component for the agenda codec.
type ownerRef struct {
	key     string
	handler sim.EventHandler
	node    mac.Node          // set for MAC owners
	src     *traffic.Source   // set for source owners
	mob     *mobility.Manager // set for the mobility epoch owner
}

// FlowSimConfig fixes one run. Every field participates in the
// configuration hash, so a checkpoint only resumes into a skeleton
// built from an identical value (over an identical testbed).
type FlowSimConfig struct {
	// Arm is the MAC registry arm name.
	Arm Protocol
	// Flows are the sender→receiver pairs under test.
	Flows []topo.Link
	// Duration and Warmup mirror Options; Rate is the data bit-rate.
	Duration, Warmup sim.Time
	Rate             phy.RateID
	// Traffic selects the workload; the zero value is saturated.
	Traffic traffic.Spec
	// Shards > 1 runs the spatially sharded engine.
	Shards int
	// Mobility moves nodes during the run; requires the serial engine.
	Mobility mobility.Spec
	// Seed is the run seed every RNG stream derives from.
	Seed uint64
}

// flowSimHash is the hashed-configuration shape: FlowSimConfig plus the
// testbed identity (size, positions, channel parameters). The radio
// model is structural per scenario and covered by the positions/params.
type flowSimHash struct {
	Cfg    FlowSimConfig
	Nodes  int
	Pos    []geo.Point
	Params phy.Params
}

// flowSimState is the checkpoint payload: engine state (serial or
// sharded), then per-component states keyed or ordered exactly as the
// construction orders them.
type flowSimState struct {
	Sched    *sim.SchedulerState        `json:"sched,omitempty"`
	Medium   *medium.State              `json:"medium,omitempty"`
	Radios   []phy.RadioState           `json:"radios,omitempty"`
	Engine   *shard.EngineState         `json:"engine,omitempty"`
	Macs     map[string]json.RawMessage `json:"macs"`
	Sources  []json.RawMessage          `json:"sources,omitempty"`
	Meters   []stats.MeterState         `json:"meters"`
	Lats     []stats.LatencyState       `json:"lats,omitempty"`
	Mobility *mobility.State            `json:"mobility,omitempty"`
}

// NewFlowSim builds the simulation. The construction sequence is the
// determinism contract the golden traces pin: the medium (or engine)
// draws rng.Stream(1), the mobility manager its own StreamLabel stream
// and starts before any MAC exists, each distinct node gets one station
// on rng.Stream(1000+id) in flow order, and flow i's traffic source
// draws rng.Stream(5000+i). It reads only N, Pos, Bounds, Params, Model
// and DenseMedium from the testbed, never the link measurements.
func NewFlowSim(tb *topo.Testbed, cfg FlowSimConfig) (*FlowSim, error) {
	return newFlowSim(tb, cfg, nil)
}

// newFlowSim is NewFlowSim with an optional step between the channel
// and the first station. Frames are delivered only to radios a station
// listens on; TestAttendedFanoutEquivalence uses the step to put a
// listener on every other radio first, which is the only way to build
// the deliver-to-everyone reference.
func newFlowSim(tb *topo.Testbed, cfg FlowSimConfig, beforeStations func(*FlowSim)) (*FlowSim, error) {
	arm, err := mac.Lookup(string(cfg.Arm))
	if err != nil {
		return nil, err
	}
	n := len(cfg.Flows)
	fs := &FlowSim{
		cfg:       cfg,
		tb:        tb,
		saturated: cfg.Traffic.Kind == traffic.Saturated,
		senders:   make([]mac.Node, n),
		receivers: make([]mac.Node, n),
		order:     make([]int, 0, 2*n),
		nodes:     map[int]mac.Node{},
		meters:    make([]*stats.Meter, n),
	}
	rng := sim.NewRNG(cfg.Seed)
	if cfg.Shards > 1 {
		if cfg.Mobility.Active() {
			return nil, fmt.Errorf("experiments: mobility requires the serial engine (set Shards <= 1)")
		}
		pairs := make([][2]int, n)
		for i, f := range cfg.Flows {
			pairs[i] = [2]int{f.Src, f.Dst}
		}
		fs.eng = shard.NewEngine(tb.Params, tb.Model, tb.Pos, rng.Stream(1), shard.Config{
			Shards: cfg.Shards,
			Flows:  pairs,
		})
	} else {
		// With a shadowing decorrelation distance set, the testbed's model
		// is wrapped in a per-run mobility.Channel (identical to the bare
		// model until the first epoch bump).
		model := tb.Model
		var ch *mobility.Channel
		if cfg.Mobility.Active() && cfg.Mobility.DecorrM > 0 {
			ch = mobility.NewChannel(tb.Model, tb.N)
			model = ch
		}
		fs.sched = sim.NewScheduler()
		fs.m = tb.BuildWith(fs.sched, rng.Stream(1), model)
		if cfg.Mobility.Active() {
			fs.mg = mobility.New(cfg.Mobility, tb.Bounds, fs.m, rng.Stream(mobility.StreamLabel), ch)
			fs.mg.Start()
		}
	}
	if !fs.saturated {
		fs.lats = make([]*stats.Latency, n)
		fs.sources = make([]*traffic.Source, n)
	}
	if beforeStations != nil {
		beforeStations(fs)
	}
	mk := func(id int) mac.Node {
		if nd, ok := fs.nodes[id]; ok {
			return nd
		}
		var network mac.Network = fs.m
		if fs.eng != nil {
			network = fs.eng.Network(id)
		}
		nd := arm.New(id, network, rng.Stream(uint64(1000+id)), mac.Options{Rate: cfg.Rate})
		fs.nodes[id] = nd
		fs.order = append(fs.order, id)
		return nd
	}
	for i, f := range cfg.Flows {
		fs.senders[i] = mk(f.Src)
		fs.receivers[i] = mk(f.Dst)
		fs.meters[i] = &stats.Meter{Start: cfg.Warmup, End: cfg.Duration}
		fs.receivers[i].SetMeter(fs.meters[i])
		if fs.saturated {
			fs.senders[i].SetSaturated(f.Dst)
			continue
		}
		fs.lats[i] = &stats.Latency{W: stats.Window{Start: cfg.Warmup, End: cfg.Duration}}
		fs.receivers[i].SetOnDeliver(fs.deliver(i, f.Src))
		// The source lives on the sender's scheduler (its shard's, on the
		// sharded engine): arrivals and the MAC they feed share one
		// single-threaded agenda.
		sched := fs.sched
		if fs.eng != nil {
			sched = fs.eng.SchedulerOf(f.Src)
		}
		src := traffic.NewSource(sched, rng.Stream(uint64(5000+i)), cfg.Traffic, fs.senders[i], f.Dst)
		src.EnableLatency(fs.senders[i].LatencyWindow())
		fs.sources[i] = src
		src.Start()
	}
	return fs, nil
}

// deliver wires flow i's non-duplicate deliveries back to arrival times
// through the source's arrival-time ring.
func (fs *FlowSim) deliver(i, wantSrc int) mac.DeliverFunc {
	return func(src int, seq uint32, now sim.Time) {
		if src != wantSrc {
			return
		}
		if at, ok := fs.sources[i].ArrivalTime(seq); ok {
			fs.lats[i].Record(now, now-at)
		}
	}
}

// index builds the agenda owner tables the checkpoint codec resolves
// events through, on first use.
func (fs *FlowSim) index() {
	if fs.owners != nil {
		return
	}
	fs.owners = map[sim.EventHandler]ownerRef{}
	fs.byKey = map[string]ownerRef{}
	add := func(ref ownerRef) {
		fs.owners[ref.handler] = ref
		fs.byKey[ref.key] = ref
	}
	if fs.m != nil {
		add(ownerRef{key: "medium", handler: fs.m})
	}
	if fs.mg != nil {
		add(ownerRef{key: "mobility", handler: fs.mg, mob: fs.mg})
	}
	for _, id := range fs.order {
		if h, ok := fs.nodes[id].(sim.EventHandler); ok {
			add(ownerRef{key: "mac:" + strconv.Itoa(id), handler: h, node: fs.nodes[id]})
		}
	}
	for i, src := range fs.sources {
		add(ownerRef{key: "src:" + strconv.Itoa(i), handler: src, src: src})
	}
}

// Run advances the simulation to the given virtual time. Repeated calls
// resume where the last one stopped.
func (fs *FlowSim) Run(until sim.Time) {
	if fs.eng != nil {
		fs.eng.Run(until)
		return
	}
	fs.sched.Run(until)
}

// Now returns the simulation clock.
func (fs *FlowSim) Now() sim.Time {
	if fs.eng != nil {
		return fs.eng.Now()
	}
	return fs.sched.Now()
}

// Window returns the sharded engine's synchronization window, or zero
// for a serial simulation. A multi-shard simulation can only checkpoint
// at multiples of this window (see AlignCheckpoint).
func (fs *FlowSim) Window() sim.Time {
	if fs.eng != nil && fs.eng.Shards() > 1 {
		return fs.eng.Window()
	}
	return 0
}

// AlignCheckpoint rounds t up to the nearest legal checkpoint instant:
// any time for a serial simulation, the next window edge for a
// multi-shard one.
func (fs *FlowSim) AlignCheckpoint(t sim.Time) sim.Time {
	w := fs.Window()
	if w <= 0 || t%w == 0 {
		return t
	}
	return (t/w + 1) * w
}

// ConfigHash returns the configuration fingerprint stamped into every
// checkpoint this simulation saves: the config plus the testbed identity
// (size, positions, channel parameters), none of which a run mutates.
func (fs *FlowSim) ConfigHash() string {
	if fs.hash == "" {
		fs.hash = checkpoint.ConfigHash(flowSimHash{Cfg: fs.cfg, Nodes: fs.tb.N, Pos: fs.tb.Pos, Params: fs.tb.Params})
	}
	return fs.hash
}

// Transmissions counts the frames put on the air so far, on either
// engine.
func (fs *FlowSim) Transmissions() uint64 {
	if fs.eng != nil {
		return fs.eng.Transmissions()
	}
	return fs.m.Transmissions
}

// Trace records every link-layer upcall at flow 0's two endpoints into
// t by decorating their radio handlers, whatever arm the stations run.
// Recording draws no randomness and schedules nothing, so a traced run
// produces the numbers of an untraced one. The tracer is unsynchronised,
// hence serial engine only.
func (fs *FlowSim) Trace(t *trace.Tracer) error {
	if fs.eng != nil {
		return fmt.Errorf("experiments: tracing requires the serial engine (set Shards <= 1)")
	}
	f := fs.cfg.Flows[0]
	for _, id := range []int{f.Src, f.Dst} {
		h, ok := fs.nodes[id].(phy.Handler)
		if !ok {
			return fmt.Errorf("experiments: arm node %d (%T) is not its radio's phy.Handler; cannot trace it", id, fs.nodes[id])
		}
		fs.m.Radio(id).SetHandler(t.Wrap(id, h, fs.sched))
	}
	return nil
}

// Sender returns flow i's sending station.
func (fs *FlowSim) Sender(i int) mac.Node { return fs.senders[i] }

// Results extracts the per-flow outcomes: goodput, CMAP visibility
// counters, and under an arrival process the drop counters and the
// latency recorder.
func (fs *FlowSim) Results() []FlowResult {
	results := make([]FlowResult, len(fs.cfg.Flows))
	for i, f := range fs.cfg.Flows {
		results[i] = FlowResult{Link: f, Mbps: fs.meters[i].Mbps()}
		if !fs.saturated {
			st := fs.sources[i].Stats()
			results[i].OfferedPkts = st.Offered
			results[i].AcceptedPkts = st.Accepted
			results[i].DroppedPkts = st.Dropped
			results[i].DeliveredPkts = fs.meters[i].Packets()
			results[i].Lat = fs.lats[i]
		}
		results[i].VpktsSent = fs.senders[i].Counters().VpktsSent
		if rv, ok := fs.receivers[i].(mac.Visibility); ok {
			_, results[i].VpktsHeader, results[i].VpktsHdrOrTrail = rv.FlowCounters(f.Src)
		}
	}
	return results
}

// checkpointer returns the node's checkpoint surface or a typed error —
// an arm registered without one can run but not checkpoint.
func nodeCheckpointer(id int, nd mac.Node) (mac.Checkpointer, error) {
	ck, ok := nd.(mac.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("experiments: arm node %d (%T) does not implement mac.Checkpointer; this arm cannot checkpoint", id, nd)
	}
	return ck, nil
}

// encode translates one agenda event to (owner key, encoded arg) — the
// sim.EncodeFunc for this simulation's component set.
func (fs *FlowSim) encode(target sim.EventHandler, arg any) (string, json.RawMessage, error) {
	ref, ok := fs.owners[target]
	if !ok {
		return "", nil, fmt.Errorf("experiments: agenda event owned by unknown handler %T", target)
	}
	switch {
	case ref.node != nil:
		ck, err := nodeCheckpointer(ref.node.ID(), ref.node)
		if err != nil {
			return "", nil, err
		}
		enc, err := ck.EncodeEventArg(arg)
		return ref.key, enc, err
	case ref.src != nil:
		enc, err := ref.src.EncodeEventArg(arg)
		return ref.key, enc, err
	case ref.mob != nil:
		enc, err := ref.mob.EncodeEventArg(arg)
		return ref.key, enc, err
	default: // the serial medium
		enc, err := fs.m.EncodeEventArg(arg)
		return ref.key, enc, err
	}
}

// decode inverts encode against the reconstructed skeleton. txs is the
// serial transmission registry the medium's fan-out events materialise
// into; the sharded engine keeps per-shard registries internally and
// never routes the "medium" key here.
func (fs *FlowSim) decode(txs map[uint64]*phy.Transmission) sim.DecodeFunc {
	return func(owner string, enc json.RawMessage) (sim.EventHandler, any, error) {
		ref, ok := fs.byKey[owner]
		if !ok {
			return nil, nil, fmt.Errorf("experiments: checkpoint event has unknown owner %q", owner)
		}
		switch {
		case ref.node != nil:
			ck, err := nodeCheckpointer(ref.node.ID(), ref.node)
			if err != nil {
				return nil, nil, err
			}
			arg, err := ck.DecodeEventArg(enc)
			return ref.handler, arg, err
		case ref.src != nil:
			arg, err := ref.src.DecodeEventArg(enc)
			return ref.handler, arg, err
		case ref.mob != nil:
			arg, err := ref.mob.DecodeEventArg(enc)
			return ref.handler, arg, err
		default:
			arg, err := fs.m.DecodeEventArg(enc, txs)
			return ref.handler, arg, err
		}
	}
}

// exportState captures the complete simulation.
func (fs *FlowSim) exportState() (*flowSimState, error) {
	fs.index()
	st := &flowSimState{
		Macs:   map[string]json.RawMessage{},
		Meters: make([]stats.MeterState, len(fs.meters)),
	}
	if fs.eng != nil {
		es, err := fs.eng.ExportState(fs.encode)
		if err != nil {
			return nil, err
		}
		st.Engine = &es
	} else {
		ss, err := fs.sched.ExportState(fs.encode)
		if err != nil {
			return nil, err
		}
		st.Sched = &ss
		ms := fs.m.ExportState()
		st.Medium = &ms
		st.Radios = make([]phy.RadioState, fs.m.NodeCount())
		for i := 0; i < fs.m.NodeCount(); i++ {
			rs, err := fs.m.Radio(i).ExportState()
			if err != nil {
				return nil, err
			}
			st.Radios[i] = rs
		}
		if fs.mg != nil {
			ms := fs.mg.ExportState()
			st.Mobility = &ms
		}
	}
	for _, id := range fs.order {
		ck, err := nodeCheckpointer(id, fs.nodes[id])
		if err != nil {
			return nil, err
		}
		enc, err := ck.ExportState()
		if err != nil {
			return nil, fmt.Errorf("experiments: node %d: %w", id, err)
		}
		st.Macs[strconv.Itoa(id)] = enc
	}
	for _, src := range fs.sources {
		enc, err := src.ExportState()
		if err != nil {
			return nil, err
		}
		st.Sources = append(st.Sources, enc)
	}
	for i, m := range fs.meters {
		st.Meters[i] = m.State()
	}
	for _, l := range fs.lats {
		st.Lats = append(st.Lats, l.State())
	}
	return st, nil
}

// restoreState overwrites the skeleton with a captured state, in
// dependency order: the agenda first (decoding materialises the
// in-flight transmission set and the receive-flow objects), then the
// channel and radios resolved against it, then every component's
// mutable state (MAC restores re-point their timers against the
// restored slot generations).
func (fs *FlowSim) restoreState(st *flowSimState) error {
	fs.index()
	if fs.eng != nil {
		if st.Engine == nil {
			return fmt.Errorf("experiments: checkpoint holds a serial simulation, this skeleton is sharded")
		}
		if err := fs.eng.RestoreState(*st.Engine, fs.decode(nil)); err != nil {
			return err
		}
	} else {
		if st.Sched == nil || st.Medium == nil {
			return fmt.Errorf("experiments: checkpoint holds a sharded simulation, this skeleton is serial")
		}
		txs := map[uint64]*phy.Transmission{}
		if err := fs.sched.RestoreState(*st.Sched, fs.decode(txs)); err != nil {
			return err
		}
		fs.m.RestoreState(*st.Medium)
		if len(st.Radios) != fs.m.NodeCount() {
			return fmt.Errorf("experiments: checkpoint has %d radios, testbed has %d", len(st.Radios), fs.m.NodeCount())
		}
		for i, rs := range st.Radios {
			err := fs.m.Radio(i).RestoreState(rs, func(txID uint64) (*phy.Transmission, error) {
				tx, ok := txs[txID]
				if !ok {
					return nil, fmt.Errorf("experiments: radio %d references transmission %d with no agenda event", i, txID)
				}
				return tx, nil
			})
			if err != nil {
				return err
			}
		}
		switch {
		case fs.mg != nil && st.Mobility == nil:
			return fmt.Errorf("experiments: checkpoint has no mobility state but the skeleton is mobile")
		case fs.mg == nil && st.Mobility != nil:
			return fmt.Errorf("experiments: checkpoint has mobility state but the skeleton is static")
		case fs.mg != nil:
			if err := fs.mg.RestoreState(*st.Mobility); err != nil {
				return err
			}
		}
	}
	for _, id := range fs.order {
		enc, ok := st.Macs[strconv.Itoa(id)]
		if !ok {
			return fmt.Errorf("experiments: checkpoint has no state for node %d", id)
		}
		ck, err := nodeCheckpointer(id, fs.nodes[id])
		if err != nil {
			return err
		}
		if err := ck.RestoreState(enc); err != nil {
			return fmt.Errorf("experiments: node %d: %w", id, err)
		}
	}
	if len(st.Sources) != len(fs.sources) {
		return fmt.Errorf("experiments: checkpoint has %d sources, skeleton %d", len(st.Sources), len(fs.sources))
	}
	for i, enc := range st.Sources {
		if err := fs.sources[i].RestoreState(enc); err != nil {
			return fmt.Errorf("experiments: source %d: %w", i, err)
		}
	}
	if len(st.Meters) != len(fs.meters) {
		return fmt.Errorf("experiments: checkpoint has %d meters, skeleton %d", len(st.Meters), len(fs.meters))
	}
	for i, ms := range st.Meters {
		fs.meters[i].Restore(ms)
	}
	if len(st.Lats) != len(fs.lats) {
		return fmt.Errorf("experiments: checkpoint has %d latency recorders, skeleton %d", len(st.Lats), len(fs.lats))
	}
	for i, ls := range st.Lats {
		fs.lats[i].Restore(ls)
	}
	return nil
}

// Save writes a checkpoint of the complete in-flight simulation. A
// multi-shard simulation must be at a window edge (AlignCheckpoint);
// the engine rejects any other cut.
func (fs *FlowSim) Save(w io.Writer) error {
	st, err := fs.exportState()
	if err != nil {
		return err
	}
	return checkpoint.Save(w, fs.ConfigHash(), st)
}

// SaveFile writes a checkpoint atomically to path.
func (fs *FlowSim) SaveFile(path string) error {
	st, err := fs.exportState()
	if err != nil {
		return err
	}
	return checkpoint.SaveFile(path, fs.ConfigHash(), st)
}

// Resume overwrites this freshly constructed skeleton with the state in
// r. The checkpoint must carry this simulation's configuration hash;
// see internal/checkpoint for the typed error contract. On any error
// the simulation must be discarded — a partial restore is not a state.
func (fs *FlowSim) Resume(r io.Reader) error {
	payload, err := checkpoint.Load(r, fs.ConfigHash())
	if err != nil {
		return err
	}
	var st flowSimState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("%w: payload: %v", checkpoint.ErrCorrupt, err)
	}
	return fs.restoreState(&st)
}

// ResumeFile reads a checkpoint from path into this skeleton.
func (fs *FlowSim) ResumeFile(path string) error {
	payload, err := checkpoint.LoadFile(path, fs.ConfigHash())
	if err != nil {
		return err
	}
	var st flowSimState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("%w: payload: %v", checkpoint.ErrCorrupt, err)
	}
	return fs.restoreState(&st)
}

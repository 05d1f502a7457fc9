package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
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
// sweep, golden trace, CLI run and conformance contract goes through
// NewFlowSim, so arms compare over identical wiring; the one exception
// is the §5.7 mesh (runMesh), whose relays forward batches no source
// drives. Every component reference is retained,
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
	meters    []stats.Meter // stations hold pointers into both
	lats      []stats.Latency
	sources   []*traffic.Source

	// Checkpoint bookkeeping, derived on first use (ConfigHash, index):
	// a batch trial that never checkpoints pays nothing for it.
	hash   string
	comps  []component
	owners map[sim.EventHandler]*component
	byKey  map[string]*component
}

// component is one agenda-owning checkpoint.Component of the run: the
// mobility manager, a MAC station or a traffic source, under the key its
// events and state are filed by.
type component struct {
	key string
	h   sim.EventHandler
	c   checkpoint.Component
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
	// Shards > 1 runs the spatially sharded engine; more shards than the
	// testbed has nodes is ErrShards.
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

// flowSimState is the checkpoint payload: the engine (serial scheduler,
// medium and radios, or the sharded engine), then every component's
// state by key and the recorders in construction order.
type flowSimState struct {
	Sched  *sim.SchedulerState        `json:"sched,omitempty"`
	Medium *medium.State              `json:"medium,omitempty"`
	Radios []phy.RadioState           `json:"radios,omitempty"`
	Engine *shard.EngineState         `json:"engine,omitempty"`
	Comps  map[string]json.RawMessage `json:"comps"`
	Meters []stats.Meter              `json:"meters"`
	Lats   []stats.Latency            `json:"lats,omitempty"`
}

// ErrShards is NewFlowSim's failure for a FlowSimConfig with more
// shards than the testbed has nodes. The sharded engine allocates
// node-length tables and starts a goroutine per shard, so the check
// comes before any of it.
var ErrShards = errors.New("experiments: more shards than nodes")

// NewFlowSim builds the simulation. The construction sequence is the
// determinism contract the golden traces pin: the medium (or engine)
// draws rng.Stream(1), the mobility manager its own StreamLabel stream
// and starts before any MAC exists, each distinct node gets one station
// on rng.Stream(1000+id) in flow order, and flow i's traffic source
// draws rng.Stream(5000+i). It reads only N, Pos, Bounds, Params, Model
// and DenseMedium from the testbed, never the link measurements, and
// returns an error for a flow set topo.CheckFlows refuses, and
// ErrShards.
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
	if err := topo.CheckFlows(tb.N, cfg.Flows); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if cfg.Shards > tb.N {
		return nil, fmt.Errorf("%w: %d shards over %d nodes", ErrShards, cfg.Shards, tb.N)
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
		meters:    make([]stats.Meter, n),
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
		fs.lats = make([]stats.Latency, n)
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
		fs.meters[i] = stats.Meter{Start: cfg.Warmup, End: cfg.Duration}
		fs.receivers[i].SetMeter(&fs.meters[i])
		if fs.saturated {
			fs.senders[i].SetSaturated(f.Dst)
			continue
		}
		fs.lats[i] = stats.Latency{W: stats.Window{Start: cfg.Warmup, End: cfg.Duration}}
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

// index lists the run's components in construction order on first use:
// the mobility manager, each station, each source.
func (fs *FlowSim) index() error {
	if fs.owners != nil {
		return nil
	}
	var comps []component
	add := func(key string, c checkpoint.Component) {
		h, _ := c.(sim.EventHandler)
		comps = append(comps, component{key: key, h: h, c: c})
	}
	if fs.mg != nil {
		add("mobility", fs.mg)
	}
	for _, id := range fs.order {
		c, ok := fs.nodes[id].(checkpoint.Component)
		if !ok {
			return fmt.Errorf("experiments: arm node %d (%T) does not implement mac.Checkpointer; this arm cannot checkpoint", id, fs.nodes[id])
		}
		add("mac:"+strconv.Itoa(id), c)
	}
	for i, src := range fs.sources {
		add("src:"+strconv.Itoa(i), src)
	}
	fs.comps = comps
	fs.owners = make(map[sim.EventHandler]*component, len(comps))
	fs.byKey = make(map[string]*component, len(comps))
	for i := range fs.comps {
		c := &fs.comps[i]
		fs.owners[c.h] = c
		fs.byKey[c.key] = c
	}
	return nil
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

// Receiver returns flow i's receiving station.
func (fs *FlowSim) Receiver(i int) mac.Node { return fs.receivers[i] }

// Epochs counts the position epochs the mobility manager has applied;
// zero for a static run.
func (fs *FlowSim) Epochs() uint64 {
	if fs.mg == nil {
		return 0
	}
	return fs.mg.Epochs
}

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
			results[i].Lat = &fs.lats[i]
		}
		results[i].VpktsSent = fs.senders[i].Counters().VpktsSent
		if rv, ok := fs.receivers[i].(mac.Visibility); ok {
			_, results[i].VpktsHeader, results[i].VpktsHdrOrTrail = rv.FlowCounters(f.Src)
		}
	}
	return results
}

// encode translates one agenda event to (owner key, encoded arg) — the
// sim.EncodeFunc for this simulation's component set.
func (fs *FlowSim) encode(target sim.EventHandler, arg any) (string, json.RawMessage, error) {
	if fs.m != nil && target == sim.EventHandler(fs.m) {
		enc, err := fs.m.EncodeEventArg(arg)
		return "medium", enc, err
	}
	c, ok := fs.owners[target]
	if !ok {
		return "", nil, fmt.Errorf("experiments: agenda event owned by unknown handler %T", target)
	}
	enc, err := c.c.EncodeEventArg(arg)
	return c.key, enc, err
}

// decode inverts encode against the reconstructed skeleton. txs is the
// serial transmission registry the medium's fan-out events materialise
// into; the sharded engine keeps per-shard registries internally and
// never routes the "medium" key here.
func (fs *FlowSim) decode(txs map[uint64]*phy.Transmission) sim.DecodeFunc {
	return func(owner string, enc json.RawMessage) (sim.EventHandler, any, error) {
		if fs.m != nil && owner == "medium" {
			arg, err := fs.m.DecodeEventArg(enc, txs)
			return fs.m, arg, err
		}
		c, ok := fs.byKey[owner]
		if !ok {
			return nil, nil, fmt.Errorf("experiments: checkpoint event has unknown owner %q", owner)
		}
		arg, err := c.c.DecodeEventArg(enc)
		return c.h, arg, err
	}
}

// exportState captures the complete simulation.
func (fs *FlowSim) exportState() (*flowSimState, error) {
	if err := fs.index(); err != nil {
		return nil, err
	}
	st := &flowSimState{Comps: make(map[string]json.RawMessage, len(fs.comps))}
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
		st.Medium = &fs.m.State
		for i := 0; i < fs.m.NodeCount(); i++ {
			st.Radios = append(st.Radios, fs.m.Radio(i).RadioState)
		}
	}
	for _, c := range fs.comps {
		enc, err := c.c.ExportState()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.key, err)
		}
		st.Comps[c.key] = enc
	}
	st.Meters = fs.meters
	st.Lats = fs.lats
	return st, nil
}

// restoreState overwrites the skeleton with a captured state, in
// dependency order: the agenda first (decoding materialises the
// in-flight transmission set and the receive-flow objects), then the
// medium and radios resolved against it, then every component in
// construction order (mobility repositions nodes before any station;
// stations and sources resolve their timers through the scheduler's
// seq → slab-index lookup), then the recorders, which stations and
// sources share by pointer and so are overwritten in place.
func (fs *FlowSim) restoreState(st *flowSimState) error {
	if err := fs.index(); err != nil {
		return err
	}
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
		if len(st.Radios) != fs.m.NodeCount() {
			return fmt.Errorf("experiments: checkpoint has %d radios, testbed has %d", len(st.Radios), fs.m.NodeCount())
		}
		for i := range st.Radios {
			if err := fs.m.Radio(i).RestoreState(st.Radios[i], txs); err != nil {
				return err
			}
		}
		fs.m.State = *st.Medium
	}
	if len(st.Comps) != len(fs.comps) {
		return fmt.Errorf("experiments: checkpoint has %d components, skeleton %d", len(st.Comps), len(fs.comps))
	}
	for _, c := range fs.comps {
		enc, ok := st.Comps[c.key]
		if !ok {
			return fmt.Errorf("experiments: checkpoint has no state for %s", c.key)
		}
		if err := c.c.RestoreState(enc); err != nil {
			return fmt.Errorf("experiments: %s: %w", c.key, err)
		}
	}
	if len(st.Meters) != len(fs.meters) || len(st.Lats) != len(fs.lats) {
		return fmt.Errorf("experiments: checkpoint has %d meters and %d latency recorders, skeleton %d and %d", len(st.Meters), len(st.Lats), len(fs.meters), len(fs.lats))
	}
	copy(fs.meters, st.Meters)
	copy(fs.lats, st.Lats)
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
func (fs *FlowSim) SaveFile(path string) error { return checkpoint.SaveFile(path, fs.Save) }

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
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: open: %w", err)
	}
	defer f.Close()
	return fs.Resume(f)
}

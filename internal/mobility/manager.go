package mobility

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/sim"
)

// StreamLabel is the conventional label for the manager's root RNG
// stream off a run's seed RNG, alongside the medium's stream 1, node
// streams 1000+id, and source streams 5000+i. Per-node movement streams
// are derived from that root by node index, so trajectories depend only
// on (seed, node id), never on event interleaving.
const StreamLabel = 0x6d0b

// Mover is the medium surface the manager drives: current positions in,
// position epochs out.
type Mover interface {
	NodeCount() int
	Position(i int) geo.Point
	MoveNode(i int, p geo.Point)
	Scheduler() *sim.Scheduler
}

// batchMover is the epoch-at-once surface a Mover may also offer (the
// real medium does): one call per epoch marks its delivery rows stale
// once, where node-by-node moves would mark them once per node.
type batchMover interface {
	MoveNodes(ids []int, pts []geo.Point)
}

// nodeState is one node's movement record. Every field is stored in the
// checkpoint — trajectories must continue bit-exactly across a resume.
type nodeState struct {
	RNG    sim.RNG   `json:"rng"`
	Home   geo.Point `json:"home"`         // initial position, centre of the roam disk
	Target geo.Point `json:"target"`       // waypoint: current destination
	VX     float64   `json:"vx,omitempty"` // walk/vehicular: velocity in m/s
	VY     float64   `json:"vy,omitempty"`
	Until  sim.Time  `json:"until,omitempty"` // walk: when the current heading expires
	Trav   float64   `json:"trav,omitempty"`  // metres travelled since the last shadow re-draw
}

// Manager owns the movement state of every node and applies one
// position epoch per Spec.Epoch to the medium. It is a
// sim.EventHandler; Start posts the first epoch and each epoch re-posts
// the next.
type Manager struct {
	spec  Spec
	arena geo.Rect
	med   Mover
	ch    *Channel // optional shadowing channel; nil disables re-draws
	epoch sim.Time
	// ids and pts collect one epoch's moves; empty between epochs.
	ids []int
	pts []geo.Point
	state
}

// state is the manager's own mutable state and its checkpoint form; the
// spec, arena and the collaborators above are structural.
type state struct {
	// Epochs counts applied position epochs, for diagnostics.
	Epochs uint64      `json:"epochs"`
	Nodes  []nodeState `json:"nodes"`
}

// New builds a manager over med. rng must be a dedicated stream of the
// run's root RNG (conventionally rng.Stream(StreamLabel)); ch may be
// nil when spec.DecorrM is zero. Initial headings and waypoint targets
// are drawn here, in node order, so construction is deterministic.
func New(spec Spec, arena geo.Rect, med Mover, rng *sim.RNG, ch *Channel) *Manager {
	if spec.Epoch <= 0 {
		spec.Epoch = DefaultEpoch
	}
	mg := &Manager{spec: spec, arena: arena, med: med, ch: ch, epoch: spec.Epoch}
	n := med.NodeCount()
	mg.Nodes = make([]nodeState, n)
	for i := 0; i < n; i++ {
		st := &mg.Nodes[i]
		st.RNG = *rng.Stream(uint64(i))
		st.Home = med.Position(i)
		switch spec.Kind {
		case Waypoint:
			st.Target = mg.pickTarget(st)
		case Vehicular:
			// Lane flow: keep Y, drive ±X at a per-node jittered speed.
			dir := 1.0
			if st.RNG.Float64() < 0.5 {
				dir = -1
			}
			st.VX = dir * spec.SpeedMps * (0.8 + 0.4*st.RNG.Float64())
		}
	}
	return mg
}

// Spec returns the movement spec the manager runs.
func (mg *Manager) Spec() Spec { return mg.spec }

// Start posts the first movement epoch. A non-active spec is a no-op.
func (mg *Manager) Start() {
	if !mg.spec.Active() {
		return
	}
	mg.med.Scheduler().PostAfter(mg.epoch, mg, nil)
}

// HandleEvent implements sim.EventHandler: apply one position epoch and
// re-post the next.
func (mg *Manager) HandleEvent(arg any) {
	if arg != nil {
		panic(fmt.Sprintf("mobility: unexpected event arg %T", arg))
	}
	mg.step()
	mg.med.Scheduler().PostAfter(mg.epoch, mg, nil)
}

// step advances every node by one epoch, in node order, bumping shadow
// epochs as travel odometers cross the decorrelation distance, then
// hands the changed positions to the medium as one batch. The batch
// evaluates no link: it marks the medium's delivery rows stale, and a
// row is rebuilt when the run next reads it, over the positions and
// shadow epochs of that read. Every bump is applied before the batch
// and no event fires inside step, so those are the epoch's final ones:
// a row read at any time before the next epoch equals a full build over
// them.
func (mg *Manager) step() {
	mg.Epochs++
	now := mg.med.Scheduler().Now()
	dt := float64(mg.epoch) / float64(sim.Second)
	for i := range mg.Nodes {
		st := &mg.Nodes[i]
		old := mg.med.Position(i)
		p := mg.advance(st, old, now, dt)
		if p == old {
			continue
		}
		if mg.ch != nil && mg.spec.DecorrM > 0 {
			st.Trav += old.Dist(p)
			for st.Trav >= mg.spec.DecorrM {
				st.Trav -= mg.spec.DecorrM
				mg.ch.Bump(i)
			}
		}
		mg.ids = append(mg.ids, i)
		mg.pts = append(mg.pts, p)
	}
	mg.apply()
}

// apply hands the collected moves to the medium — as one batch when it
// takes one, else node by node — and empties the collection. An epoch
// in which no node moved (every node paused at a waypoint) hands over
// an empty batch, which the medium ignores.
func (mg *Manager) apply() {
	if bm, ok := mg.med.(batchMover); ok {
		bm.MoveNodes(mg.ids, mg.pts)
	} else {
		for k, i := range mg.ids {
			mg.med.MoveNode(i, mg.pts[k])
		}
	}
	mg.ids, mg.pts = mg.ids[:0], mg.pts[:0]
}

// advance computes one node's next position without applying it.
func (mg *Manager) advance(st *nodeState, old geo.Point, now sim.Time, dt float64) geo.Point {
	step := mg.spec.SpeedMps * dt
	switch mg.spec.Kind {
	case Waypoint:
		// Travel toward the target; on arrival land exactly on it and
		// draw the next one (the residual step is forfeited — an epoch
		// is short next to a leg, and exact landings keep the walk
		// independent of epoch size at the waypoints themselves).
		d := old.Dist(st.Target)
		if d <= step {
			arrived := st.Target
			st.Target = mg.pickTarget(st)
			return arrived
		}
		return geo.Point{X: old.X + (st.Target.X-old.X)/d*step, Y: old.Y + (st.Target.Y-old.Y)/d*step}
	case RandomWalk:
		if now >= st.Until || (st.VX == 0 && st.VY == 0) {
			ang := st.RNG.Float64() * 2 * math.Pi
			st.VX = mg.spec.SpeedMps * math.Cos(ang)
			st.VY = mg.spec.SpeedMps * math.Sin(ang)
			st.Until = now + sim.Time(float64(sim.Second)*(1+st.RNG.Float64()))
		}
		p := geo.Point{X: old.X + st.VX*dt, Y: old.Y + st.VY*dt}
		r := mg.roam(st)
		if p.X < r.MinX {
			p.X = 2*r.MinX - p.X
			st.VX = -st.VX
		} else if p.X > r.MaxX {
			p.X = 2*r.MaxX - p.X
			st.VX = -st.VX
		}
		if p.Y < r.MinY {
			p.Y = 2*r.MinY - p.Y
			st.VY = -st.VY
		} else if p.Y > r.MaxY {
			p.Y = 2*r.MaxY - p.Y
			st.VY = -st.VY
		}
		return clamp(p, r) // a step longer than the region still lands inside
	case Vehicular:
		p := geo.Point{X: old.X + st.VX*dt, Y: old.Y}
		if w := mg.arena.Width(); w > 0 {
			for p.X > mg.arena.MaxX {
				p.X -= w
			}
			for p.X < mg.arena.MinX {
				p.X += w
			}
		}
		return p
	}
	return old
}

// roam returns the node's movement region: the arena, or its
// intersection with the RangeM square around home.
func (mg *Manager) roam(st *nodeState) geo.Rect {
	r := mg.arena
	if mg.spec.RangeM > 0 {
		r = geo.Rect{
			MinX: math.Max(r.MinX, st.Home.X-mg.spec.RangeM),
			MinY: math.Max(r.MinY, st.Home.Y-mg.spec.RangeM),
			MaxX: math.Min(r.MaxX, st.Home.X+mg.spec.RangeM),
			MaxY: math.Min(r.MaxY, st.Home.Y+mg.spec.RangeM),
		}
	}
	if r.MaxX < r.MinX {
		r.MinX, r.MaxX = st.Home.X, st.Home.X
	}
	if r.MaxY < r.MinY {
		r.MinY, r.MaxY = st.Home.Y, st.Home.Y
	}
	return r
}

// pickTarget draws a uniform waypoint in the roam region — rejection
// sampled against the RangeM disk, falling back to home if the disk and
// arena barely intersect.
func (mg *Manager) pickTarget(st *nodeState) geo.Point {
	r := mg.roam(st)
	for try := 0; try < 16; try++ {
		p := geo.Point{
			X: r.MinX + st.RNG.Float64()*(r.MaxX-r.MinX),
			Y: r.MinY + st.RNG.Float64()*(r.MaxY-r.MinY),
		}
		if mg.spec.RangeM <= 0 || st.Home.Dist(p) <= mg.spec.RangeM {
			return p
		}
	}
	return st.Home
}

func clamp(p geo.Point, r geo.Rect) geo.Point {
	return geo.Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

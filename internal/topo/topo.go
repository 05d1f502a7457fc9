package topo

import (
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DataWireBytes is the wire size of the data packets used for all link
// measurements, matching the experiments' mac.DefaultPayload.
const DataWireBytes = 1433

// Testbed is a reproducible node layout plus its channel realisation.
// Building a medium from it any number of times yields the identical
// radio environment, so protocol arms compare on equal footing.
type Testbed struct {
	N      int
	Bounds geo.Rect
	Pos    []geo.Point
	Params phy.Params
	Model  radio.Model

	// DenseMedium makes Build use the reference O(n²) medium
	// construction instead of the grid-pruned sparse one. The two are
	// bit-identical (the equivalence tests prove it); the switch exists
	// so those tests can run both arms through the same experiment code.
	DenseMedium bool

	// RSS[a][b] is the isolation received power at b from a in dBm;
	// PRR[a][b] the analytic isolation packet reception ratio for
	// DataWireBytes-byte data frames at 6 Mb/s (§5.1's measurement pass).
	RSS [][]float64
	PRR [][]float64

	// rssP10 and rssP90 are the network-wide signal-strength percentiles
	// over connected links, used by the §5.1 link definitions.
	rssP10, rssP90 float64

	// shared, set on a Shared copy, holds the one row set its builds
	// reuse.
	shared *sharedRows
}

// sharedRows is one build of a testbed's delivery rows, made by the
// first Build that needs it. It hangs off a pointer so that a Testbed
// stays copyable by value.
type sharedRows struct {
	once       sync.Once
	rows       [][]medium.Delivery
	gridBacked bool
}

// DefaultBounds is the floor plan of the generated testbed: one office
// floor, metres.
var DefaultBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 40}

// NewTestbed generates an n-node testbed with the given seed. Layout
// mimics the paper's floor plan (Figure 10): offices on a jittered grid
// with two nodes sharing most rooms a few metres apart, so the network
// has both very strong same-room links and a long tail of weak
// cross-floor links. The channel is log-distance with deterministic
// per-link shadowing; PHY parameters and floor size are calibrated so
// the link census matches §5.1.
func NewTestbed(n int, seed uint64) *Testbed {
	rng := sim.NewRNG(seed)
	layoutRNG := rng.Stream(1)
	// Rooms hold 2–4 nodes each (Figure 10 shows such clusters).
	var roomOf []int
	room := 0
	for len(roomOf) < n {
		k := 2 + layoutRNG.Intn(3)
		for j := 0; j < k && len(roomOf) < n; j++ {
			roomOf = append(roomOf, room)
		}
		room++
	}
	centers := geo.GridLayout(room, DefaultBounds, 0.4, layoutRNG.Float64)
	pos := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		c := centers[roomOf[i]]
		dx := (layoutRNG.Float64()*2 - 1) * 2.0
		dy := (layoutRNG.Float64()*2 - 1) * 2.0
		p := c.Add(dx, dy)
		if !DefaultBounds.Contains(p) {
			p = c
		}
		pos = append(pos, p)
	}
	tb := &Testbed{
		N:      n,
		Bounds: DefaultBounds,
		Pos:    pos,
		Params: phy.DefaultParams(),
		Model:  radio.DefaultIndoor5GHz(seed),
	}
	tb.measure()
	return tb
}

// measure runs the isolation measurement pass: RSS and PRR for every
// ordered pair, then the network-wide signal percentiles.
func (tb *Testbed) measure() {
	n := tb.N
	tb.RSS = make([][]float64, n)
	tb.PRR = make([][]float64, n)
	rate := phy.RateByID(phy.Rate6Mbps)
	// Signal-strength percentiles are computed over links that actually
	// deliver packets: RSS is measured from received frames, so a link
	// with PRR = 0 contributes no signal-strength sample.
	var measurable []float64
	for a := 0; a < n; a++ {
		tb.RSS[a] = make([]float64, n)
		tb.PRR[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			if a == b {
				tb.RSS[a][b] = -1000
				continue
			}
			loss := tb.Model.Loss(a, tb.Pos[a], b, tb.Pos[b])
			rss := tb.Params.TxPowerDBm - loss
			tb.RSS[a][b] = rss
			tb.PRR[a][b] = phy.IsolationPRR(tb.Params, rate, rss, DataWireBytes)
			if tb.PRR[a][b] > 0 {
				measurable = append(measurable, rss)
			}
		}
	}
	sort.Float64s(measurable)
	if len(measurable) > 0 {
		tb.rssP10 = measurable[len(measurable)/10]
		tb.rssP90 = measurable[len(measurable)*9/10]
	}
}

// Build constructs a fresh medium over this testbed on the given
// scheduler. Decode randomness comes from rng; the channel itself is part
// of the testbed and identical across builds.
func (tb *Testbed) Build(sched *sim.Scheduler, rng *sim.RNG) *medium.Medium {
	return tb.BuildWith(sched, rng, tb.Model)
}

// BuildWith is Build with an explicit channel model in place of
// tb.Model — the hook mobile runs use to interpose the shadowing
// re-draw wrapper (mobility.Channel) around the testbed's model. The
// DenseMedium switch is honoured the same way.
func (tb *Testbed) BuildWith(sched *sim.Scheduler, rng *sim.RNG, model radio.Model) *medium.Medium {
	switch s := tb.shared; {
	case tb.DenseMedium:
		return medium.NewDense(sched, tb.Params, model, tb.Pos, rng)
	case s != nil && model == tb.Model:
		s.once.Do(func() { s.rows, s.gridBacked = medium.BuildDeliveries(tb.Params, tb.Model, tb.Pos, 0) })
		return medium.NewFromRows(sched, tb.Params, model, tb.Pos, rng, s.rows, s.gridBacked)
	}
	return medium.New(sched, tb.Params, model, tb.Pos, rng)
}

// Shared returns a shallow copy of tb whose Build and BuildWith build
// the delivery rows once, on first use, and hand every medium the same
// rows (medium.NewFromRows). The rows are a pure function of the
// testbed's params, model and positions, so each medium is the one a
// fresh build makes, and none can change what another reads. A
// BuildWith over any other model (the mobility.Channel of a run that
// re-draws shadowing) and DenseMedium build afresh, as before. Take one
// copy per fan-out of trials and let it go with them — the rows live as
// long as the copy does. Shared on a copy that already shares returns it.
func (tb *Testbed) Shared() *Testbed {
	if tb.shared != nil {
		return tb
	}
	c := *tb
	c.shared = new(sharedRows)
	return &c
}

// SignalP10 returns the network-wide 10th-percentile signal strength.
func (tb *Testbed) SignalP10() float64 { return tb.rssP10 }

// SignalP90 returns the network-wide 90th-percentile signal strength.
func (tb *Testbed) SignalP90() float64 { return tb.rssP90 }

// Connected reports whether a can be heard at b at all.
func (tb *Testbed) Connected(a, b int) bool {
	return a != b && tb.RSS[a][b] >= tb.Params.DeliveryFloorDBm
}

// InRange implements §5.1: both directions have PRR above 0.2 and signal
// above the network-wide 10th percentile.
func (tb *Testbed) InRange(a, b int) bool {
	if a == b {
		return false
	}
	return tb.PRR[a][b] > 0.2 && tb.PRR[b][a] > 0.2 &&
		tb.RSS[a][b] >= tb.rssP10 && tb.RSS[b][a] >= tb.rssP10
}

// PotentialLink implements §5.1's "potential transmission link": both
// directions have PRR above 0.9 and signal above the 10th percentile —
// the links a routing protocol would actually use.
func (tb *Testbed) PotentialLink(a, b int) bool {
	if a == b {
		return false
	}
	return tb.PRR[a][b] > 0.9 && tb.PRR[b][a] > 0.9 &&
		tb.RSS[a][b] >= tb.rssP10 && tb.RSS[b][a] >= tb.rssP10
}

// StrongSignal reports whether a→b sits in the top decile of
// network-wide signal strengths (§5.2 constraint iii).
func (tb *Testbed) StrongSignal(a, b int) bool { return tb.RSS[a][b] >= tb.rssP90 }

// Census summarises the link population the way §5.1 reports it.
type Census struct {
	ConnectedPairs int     // ordered pairs with any connectivity
	FracLow        float64 // PRR < 0.1
	FracMid        float64 // 0.1 ≤ PRR < 1
	FracFull       float64 // PRR ≈ 1
	MeanDegree     float64 // neighbours with PRR ≥ 0.1 (mid+full links)
	MedianDegree   float64
}

// Census computes the link census over ordered connected pairs.
func (tb *Testbed) Census() Census {
	var c Census
	degree := make([]int, tb.N)
	for a := 0; a < tb.N; a++ {
		for b := 0; b < tb.N; b++ {
			if !tb.Connected(a, b) {
				continue
			}
			c.ConnectedPairs++
			switch prr := tb.PRR[a][b]; {
			case prr < 0.1:
				c.FracLow++
			case prr < 0.999:
				c.FracMid++
				degree[a]++
			default:
				c.FracFull++
				degree[a]++
			}
		}
	}
	if c.ConnectedPairs > 0 {
		t := float64(c.ConnectedPairs)
		c.FracLow /= t
		c.FracMid /= t
		c.FracFull /= t
	}
	var d stats.Dist
	sum := 0
	for _, deg := range degree {
		d.Add(float64(deg))
		sum += deg
	}
	c.MeanDegree = float64(sum) / float64(tb.N)
	c.MedianDegree = d.Median()
	return c
}

// Link is a directed sender→receiver pair.
type Link struct{ Src, Dst int }

// LinkPair is one two-flow experiment topology.
type LinkPair struct{ A, B Link }

// Nodes returns the four endpoints.
func (p LinkPair) Nodes() []int { return []int{p.A.Src, p.A.Dst, p.B.Src, p.B.Dst} }

// distinct reports whether all ids differ.
func distinct(ids ...int) bool {
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// PotentialLinks enumerates all ordered potential transmission links,
// source-major.
func (tb *Testbed) PotentialLinks() []Link {
	var out []Link
	for a := 0; a < tb.N; a++ {
		for b := 0; b < tb.N; b++ {
			if tb.PotentialLink(a, b) {
				out = append(out, Link{a, b})
			}
		}
	}
	return out
}

// samplePairs draws up to count link pairs accepted by ok, rejecting
// duplicates, with a bounded number of attempts.
func (tb *Testbed) samplePairs(rng *sim.RNG, count int, ok func(a, b Link) bool) []LinkPair {
	links := tb.PotentialLinks()
	if len(links) < 2 {
		return nil
	}
	seen := map[[4]int]bool{}
	var out []LinkPair
	for attempts := 0; attempts < count*4000 && len(out) < count; attempts++ {
		a := links[rng.Intn(len(links))]
		b := links[rng.Intn(len(links))]
		if !distinct(a.Src, a.Dst, b.Src, b.Dst) || !ok(a, b) {
			continue
		}
		key := [4]int{a.Src, a.Dst, b.Src, b.Dst}
		rkey := [4]int{b.Src, b.Dst, a.Src, a.Dst}
		if seen[key] || seen[rkey] {
			continue
		}
		seen[key] = true
		out = append(out, LinkPair{A: a, B: b})
	}
	return out
}

// ExposedPairs draws link pairs under the §5.2 constraints (Fig. 11a):
// senders in range of each other; each sender→receiver link a potential
// transmission link with top-decile signal; every other pairing weak
// (below the 90th percentile).
func (tb *Testbed) ExposedPairs(rng *sim.RNG, count int) []LinkPair {
	weak := func(x, y int) bool {
		return !tb.StrongSignal(x, y) && !tb.StrongSignal(y, x)
	}
	return tb.samplePairs(rng, count, func(a, b Link) bool {
		if !tb.InRange(a.Src, b.Src) {
			return false
		}
		if !tb.StrongSignal(a.Src, a.Dst) || !tb.StrongSignal(b.Src, b.Dst) {
			return false
		}
		return weak(a.Src, b.Src) && weak(a.Src, b.Dst) && weak(a.Dst, b.Src) && weak(a.Dst, b.Dst)
	})
}

// InRangePairs draws link pairs under the §5.3 constraints (Fig. 11b):
// senders in range of each other, both links potential transmission
// links, no signal-strength constraints.
func (tb *Testbed) InRangePairs(rng *sim.RNG, count int) []LinkPair {
	return tb.samplePairs(rng, count, func(a, b Link) bool {
		return tb.InRange(a.Src, b.Src)
	})
}

// HiddenPairs draws link pairs under the §5.5 constraints (Fig. 11c):
// each receiver has a potential transmission link to BOTH senders (so
// concurrent transmissions interfere at both receivers), while the
// senders are out of range of each other.
func (tb *Testbed) HiddenPairs(rng *sim.RNG, count int) []LinkPair {
	return tb.samplePairs(rng, count, func(a, b Link) bool {
		if tb.InRange(a.Src, b.Src) {
			return false
		}
		return tb.PotentialLink(a.Src, b.Dst) && tb.PotentialLink(b.Src, a.Dst)
	})
}

// Triple is one hidden-interferer measurement unit (§5.4): a
// sender→receiver potential link plus a random interferer.
type Triple struct {
	Src, Dst, Interferer int
}

// HiddenInterfererTriples draws (S, R, I) triples: S→R a potential
// transmission link, I uniform over all other nodes.
func (tb *Testbed) HiddenInterfererTriples(rng *sim.RNG, count int) []Triple {
	links := tb.PotentialLinks()
	if len(links) == 0 || tb.N < 3 {
		return nil
	}
	var out []Triple
	for attempts := 0; attempts < count*100 && len(out) < count; attempts++ {
		l := links[rng.Intn(len(links))]
		i := rng.Intn(tb.N)
		if i == l.Src || i == l.Dst {
			continue
		}
		out = append(out, Triple{Src: l.Src, Dst: l.Dst, Interferer: i})
	}
	return out
}

// APCell is one access point with its clients.
type APCell struct {
	AP      int
	Clients []int
}

// APRegions partitions the floor into six vertical regions (§5.6),
// designates one node per region as the AP such that no two APs are in
// communication range, and lists each AP's potential-link clients within
// its region.
func (tb *Testbed) APRegions() []APCell {
	regions := tb.Bounds.SplitX(6)
	cells := make([]APCell, 0, 6)
	chosen := []int{}
	for _, r := range regions {
		best, bestDist := -1, 0.0
		center := r.Center()
		for i := 0; i < tb.N; i++ {
			if !r.Contains(tb.Pos[i]) {
				continue
			}
			ok := true
			for _, ap := range chosen {
				if tb.InRange(i, ap) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			d := tb.Pos[i].Dist(center)
			if best == -1 || d < bestDist {
				best, bestDist = i, d
			}
		}
		if best == -1 {
			continue
		}
		chosen = append(chosen, best)
		cell := APCell{AP: best}
		for i := 0; i < tb.N; i++ {
			if i != best && r.Contains(tb.Pos[i]) && tb.PotentialLink(best, i) {
				cell.Clients = append(cell.Clients, i)
			}
		}
		if len(cell.Clients) > 0 {
			cells = append(cells, cell)
		}
	}
	return cells
}

// Mesh is one §5.7 content-dissemination topology: a source S, relays
// A1..Ak with potential links from S, and leaves B1..Bk with potential
// links from the matching relay.
type Mesh struct {
	Source int
	Relays []int
	Leaves []int
}

// MeshTopologies draws count two-hop dissemination meshes with k relays
// each (Fig. 11d).
func (tb *Testbed) MeshTopologies(rng *sim.RNG, count, k int) []Mesh {
	var out []Mesh
	for attempts := 0; attempts < count*2000 && len(out) < count; attempts++ {
		s := rng.Intn(tb.N)
		var relays []int
		perm := rng.Perm(tb.N)
		for _, a := range perm {
			if a == s || !tb.PotentialLink(s, a) {
				continue
			}
			// Relays cluster around the source and hear one another —
			// the exposed-terminal setting of §5.7 (a CSMA relay defers
			// to its siblings; a CMAP relay need not).
			ok := true
			for _, prev := range relays {
				if !tb.InRange(a, prev) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			relays = append(relays, a)
			if len(relays) == k {
				break
			}
		}
		if len(relays) < k {
			continue
		}
		used := map[int]bool{s: true}
		for _, a := range relays {
			used[a] = true
		}
		leaves := make([]int, 0, k)
		okAll := true
		for _, a := range relays {
			// Pick the strongest qualifying leaf link, as a routing
			// protocol choosing forwarders would (§5.1).
			found := -1
			for b := 0; b < tb.N; b++ {
				if used[b] || !tb.PotentialLink(a, b) || tb.PotentialLink(s, b) {
					continue
				}
				// Figure 11(d): each leaf hangs off its own relay, away
				// from the cluster — the other relays must not reach it,
				// which is what makes the forwarding phase exposed.
				clear := true
				for _, a2 := range relays {
					if a2 != a && tb.InRange(a2, b) {
						clear = false
						break
					}
				}
				if clear && (found == -1 || tb.RSS[a][b] > tb.RSS[a][found]) {
					found = b
				}
			}
			if found == -1 {
				okAll = false
				break
			}
			used[found] = true
			leaves = append(leaves, found)
		}
		if !okAll {
			continue
		}
		out = append(out, Mesh{Source: s, Relays: relays, Leaves: leaves})
	}
	return out
}

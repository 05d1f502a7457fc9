package shard

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config sizes and shapes a sharded engine.
type Config struct {
	// Shards is the number of spatial partitions, each running its own
	// event loop on its own goroutine. 0 and 1 both mean one shard,
	// which short-circuits to a plain serial run.
	Shards int
	// Flows lists (src, dst) endpoint pairs that must land in the same
	// shard: stop-and-wait MAC exchanges cannot afford 2W of added
	// round-trip. Endpoint groups connected through shared nodes merge
	// transitively and take the shard of their lowest-numbered member.
	Flows [][2]int
}

// window is the synthetic cross-shard signal latency W, which is also
// the synchronization window width. See the package comment for why it
// must exist and what it perturbs.
const window = phy.DIFS

// Engine is one simulation partitioned across shards. Construct with
// NewEngine, wire MACs through Network, then drive virtual time with
// Run. An Engine is not safe for concurrent use; Run itself owns the
// shard goroutines it spawns.
type Engine struct {
	params phy.Params
	shards []*Shard
	assign []int
	radios []phy.Radio
	// attended[i] reports whether a station listens on radio i: frames
	// are delivered to those radios only (see Shard.Attend). Written
	// while the engine is being wired, read by every shard during Run.
	attended []bool

	engineState

	bar      barrier
	failOnce sync.Once
	failErr  any
}

// NewEngine builds a sharded engine over the given topology. rng must
// be the same stream the serial medium would receive (the experiment
// harness passes root.Stream(1)): phy.InitRadios labels each node's
// decode stream for both engines, so decode randomness is identical to
// the serial engine at every shard count.
func NewEngine(params phy.Params, model radio.Model, positions []geo.Point, rng *sim.RNG, cfg Config) *Engine {
	k := cfg.Shards
	if k < 1 {
		k = 1
	}
	n := len(positions)
	assign := Partition(positions, cfg.Flows, k)
	// The build fans out across GOMAXPROCS goroutines; its output is
	// bit-identical at any count.
	deliveries, _ := medium.BuildDeliveries(params, model, positions, 0)

	e := &Engine{
		params:   params,
		assign:   assign,
		radios:   make([]phy.Radio, n),
		attended: make([]bool, n),
	}
	e.bar.n = int32(k)
	e.shards = make([]*Shard, k)
	for s := 0; s < k; s++ {
		sh := &Shard{
			eng:      e,
			idx:      s,
			sched:    sim.NewScheduler(),
			attachAt: -1,
			local:    make([][]medium.Delivery, n),
			inFrom:   make([][]medium.Delivery, n),
			outTo:    make([][]peer, n),
		}
		for p := 0; p < 2; p++ {
			sh.outbox[p] = make([][]handoff, k)
		}
		e.shards[s] = sh
	}
	// Radios get the serial engine's RNG streams; only the owning
	// scheduler differs.
	phy.InitRadios(e.radios, params, rng, func(i int) (*sim.Scheduler, phy.Channel) {
		sh := e.shards[assign[i]]
		return sh.sched, sh
	})
	for i, s := range assign {
		e.shards[s].nodes = append(e.shards[s].nodes, i)
	}
	// Split each node's delivery list into the same-shard prefix walked
	// synchronously and per-foreign-shard lists walked on handoff. Order
	// within every sub-list stays ascending, inherited from the build.
	for i := 0; i < n; i++ {
		home := assign[i]
		src := e.shards[home]
		byShard := make(map[int][]medium.Delivery)
		for _, d := range deliveries[i] {
			ds := assign[d.Dst]
			if ds == home {
				src.local[i] = append(src.local[i], d)
			} else {
				byShard[ds] = append(byShard[ds], d)
			}
		}
		for ds := 0; ds < k; ds++ {
			list, ok := byShard[ds]
			if !ok {
				continue
			}
			src.outTo[i] = append(src.outTo[i], peer{shard: int32(ds)})
			e.shards[ds].inFrom[i] = list
		}
	}
	return e
}

// engineState is the engine's own mutable state and its part of a
// checkpoint, beside the shards' and the radios'.
type engineState struct {
	Seg   int64    `json:"seg"`   // absolute index of the window Run resumes in
	Clock sim.Time `json:"clock"` // high-water mark of Run
}

// Partition assigns each node to one of k shards: a population-balanced
// spatial strip partition (geo.PartitionStrips), then flow endpoints
// pulled into one shard via union-find — each connected endpoint group
// takes the shard of its lowest-numbered member, so the result is a
// total function of (positions, flows, k).
func Partition(positions []geo.Point, flows [][2]int, k int) []int {
	base := geo.PartitionStrips(positions, k)
	if k <= 1 || len(flows) == 0 {
		return base
	}
	n := len(positions)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, f := range flows {
		a, b := find(f[0]), find(f[1])
		// Attach the larger root under the smaller: every group's root
		// is its lowest-numbered member.
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = base[find(i)]
	}
	return out
}

// NodeCount returns the number of nodes across all shards.
func (e *Engine) NodeCount() int { return len(e.radios) }

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Window returns the lookahead/synchronization window W.
func (e *Engine) Window() sim.Time { return window }

// Network returns the mac.Network surface for node id — the shard that
// hosts it. Every MAC must be constructed against its own node's shard.
func (e *Engine) Network(id int) mac.Network { return e.shards[e.assign[id]] }

// SchedulerOf returns the event loop driving node id, for components
// (traffic sources, meters' observers) that attach alongside its MAC.
func (e *Engine) SchedulerOf(id int) *sim.Scheduler { return e.shards[e.assign[id]].sched }

// Now returns the engine's clock high-water mark: every shard has run
// to at least this virtual time.
func (e *Engine) Now() sim.Time { return e.Clock }

// Transmissions sums frames put on the air across all shards.
func (e *Engine) Transmissions() uint64 {
	var t uint64
	for _, sh := range e.shards {
		t += sh.Transmissions
	}
	return t
}

// fail records the first real shard panic and releases every barrier
// spinner so the remaining goroutines unwind promptly.
func (e *Engine) fail(r any) {
	if r != errAborted {
		e.failOnce.Do(func() { e.failErr = r })
	}
	e.bar.quit()
}

// Run advances every shard to the given virtual time, spawning one
// goroutine per shard and joining them before returning. until must not
// move backwards. Repeated calls resume exactly where the last stopped,
// including mid-window. A panic on any shard goroutine aborts the whole
// run and re-panics here with the original value.
func (e *Engine) Run(until sim.Time) {
	if until <= e.Clock {
		return
	}
	if len(e.shards) == 1 {
		// One shard is the serial engine: no windows, no barrier, no
		// goroutines — and therefore bit-identical to it.
		e.shards[0].sched.Run(until)
		e.Clock = until
		return
	}
	var wg sync.WaitGroup
	for _, sh := range e.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if r != errAborted {
						r = fmt.Sprintf("shard %d (window %d, t=%v): %v\n%s",
							sh.idx, sh.CurWin, sh.sched.Now(), r, debug.Stack())
					}
					e.fail(r)
				}
			}()
			e.runShard(sh, until)
		}(sh)
	}
	wg.Wait()
	if e.failErr != nil {
		panic(e.failErr)
	}
	e.Seg = int64(until / window)
	e.Clock = until
}

// runShard is one shard goroutine's window loop: run to the next window
// edge (or until, whichever is earlier), synchronize, exchange, repeat.
// Every shard computes the identical (edge, stop) sequence, so the
// barriers line up by construction.
func (e *Engine) runShard(sh *Shard, until sim.Time) {
	for k := e.Seg; ; k++ {
		sh.CurWin = k
		edge := sim.Time(k+1) * window
		stop := edge
		if until < stop {
			stop = until
		}
		sh.sched.Run(stop)
		e.bar.await()
		if stop < edge {
			return // mid-window stop; the next Run resumes window k
		}
		// The barrier above proves every peer finished window k, so its
		// parity-k outboxes are complete; and no peer can write parity k
		// again before the *next* barrier, which it cannot reach until
		// this shard finishes draining and runs window k+1.
		sh.drain(k)
		if stop == until {
			return
		}
	}
}

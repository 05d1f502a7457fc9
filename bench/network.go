package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"

	// The protocol packages register their arms with internal/mac from
	// init; the driver resolves them by name only.
	_ "repro/internal/core"
	_ "repro/internal/csma"
)

// payloadBytes is the application payload both MAC defaults carry.
const payloadBytes = 1400

// traceWindow is the simulated step a traced run advances by; each
// step's host time is one sim.window_ms sample.
const traceWindow = 20 * sim.Millisecond

// netWorkload is one synthetic single-simulation workload: uniform
// disks of n nodes, one flow per ten nodes, each arm run on each disk
// for dur of simulated time on one goroutine.
type netWorkload struct {
	name    string
	draws   int // topologies generated per rep
	n       int
	density float64 // nodes per km²
	dur     sim.Time
	arms    []string
	mob     mobility.Spec
	traffic traffic.Spec // zero value: saturated senders
}

func (w netWorkload) Name() string { return w.name }

func (w netWorkload) SimSeconds() float64 {
	return float64(w.draws*len(w.arms)) * w.dur.Seconds()
}

func (w netWorkload) Inputs() string {
	load := "saturated"
	if w.traffic.Kind != traffic.Saturated {
		load = fmt.Sprintf("%s %.2f Mb/s/flow churn %v/%v", w.traffic.Kind,
			w.traffic.OfferedMbps(payloadBytes), time.Duration(w.traffic.UpMean), time.Duration(w.traffic.DownMean))
	}
	return fmt.Sprintf("%d x UniformDisk n=%d density=%g/km2 flows=%d arms=%v sim=%gs/arm mobility=%s load=%s",
		w.draws, w.n, w.density, w.n/10+2, w.arms, w.dur.Seconds(), w.mob, load)
}

func (w netWorkload) BareMedium(seed uint64) *medium.Medium {
	return topo.UniformDisk(w.n, w.density, drawSeed(seed, 0)).Build(sim.NewScheduler(), sim.NewRNG(seed))
}

// network is one arm's built simulation: bench owns the scheduler and
// the medium, so counters are read from outside after the run.
type network struct {
	sched   *sim.Scheduler
	med     *medium.Medium
	mob     *mobility.Manager
	flows   []topo.Link
	meters  []*stats.Meter
	sources []*traffic.Source
}

// pickFlows is the loudest-unused-receiver rule: every stride-th node
// sends to the not-yet-used neighbour that hears it loudest, so no
// node serves two flows and every link is a strong one.
func pickFlows(m *medium.Medium, count int) []topo.Link {
	n := m.NodeCount()
	stride := n / count
	if stride < 1 {
		stride = 1
	}
	used := make([]bool, n)
	var flows []topo.Link
	for src := 0; src < n && len(flows) < count; src += stride {
		if used[src] {
			continue
		}
		best, bestGain := -1, 0.0
		m.ForEachNeighbor(src, func(dst int, gainMW float64) {
			if !used[dst] && gainMW > bestGain {
				best, bestGain = dst, gainMW
			}
		})
		if best < 0 {
			continue
		}
		used[src], used[best] = true, true
		flows = append(flows, topo.Link{Src: src, Dst: best})
	}
	return flows
}

// build constructs one arm's network up to the last attach, before the
// first event fires. RNG stream labels follow the experiment harness:
// Stream(1) medium, 1000+id stations, 5000+i sources,
// mobility.StreamLabel the movement manager.
func (w netWorkload) build(scen *topo.Scenario, arm mac.Arm, seed uint64, sp spans) *network {
	t0 := time.Now()
	rng := sim.NewRNG(seed + 104729*arm.SeedSalt())
	nw := &network{sched: sim.NewScheduler()}
	var model radio.Model = scen.Model
	var ch *mobility.Channel
	if w.mob.Active() && w.mob.DecorrM > 0 {
		ch = mobility.NewChannel(scen.Model, scen.N())
		model = ch
	}
	nw.med = medium.New(nw.sched, scen.Params, model, scen.Pos, rng.Stream(1))
	if w.mob.Active() {
		nw.mob = mobility.New(w.mob, scen.Bounds, nw.med, rng.Stream(mobility.StreamLabel), ch)
		nw.mob.Start()
	}
	sp.add("medium.construct", t0)

	t0 = time.Now()
	nw.flows = pickFlows(nw.med, w.n/10+2)
	opt := mac.Options{Rate: phy.Rate6Mbps}
	for i, f := range nw.flows {
		tx := arm.New(f.Src, nw.med, rng.Stream(uint64(1000+f.Src)), opt)
		rx := arm.New(f.Dst, nw.med, rng.Stream(uint64(1000+f.Dst)), opt)
		mt := &stats.Meter{Start: 0, End: w.dur}
		rx.SetMeter(mt)
		nw.meters = append(nw.meters, mt)
		if w.traffic.Kind == traffic.Saturated {
			tx.SetSaturated(f.Dst)
			continue
		}
		src := traffic.NewSource(nw.sched, rng.Stream(uint64(5000+i)), w.traffic, tx, f.Dst)
		src.Start()
		nw.sources = append(nw.sources, src)
	}
	sp.add("mac.attach", t0)
	return nw
}

// run advances the network to dur and returns the host seconds spent.
// Untraced it is one Scheduler.Run; traced it steps in traceWindow
// slices under the CPU profiler, which fires the same events in the
// same order.
func (nw *network) run(dur sim.Time, tr *tracer) float64 {
	if tr == nil {
		t0 := time.Now()
		nw.sched.Run(dur)
		return time.Since(t0).Seconds()
	}
	var wall float64
	tr.profiled(func() {
		t0 := time.Now()
		for t := sim.Time(0); t < dur; {
			t += traceWindow
			if t > dur {
				t = dur
			}
			w0 := time.Now()
			nw.sched.Run(t)
			tr.window(time.Since(w0), nw.sched.Pending())
		}
		wall = time.Since(t0).Seconds()
	})
	return wall
}

// counts reads every layer's counters after a run, from outside.
func (nw *network) counts(c counters) {
	c["runs"]++
	c["sim.events"] += float64(nw.sched.Fired())
	c["medium.transmissions"] += float64(nw.med.Transmissions)
	var neigh int
	for i := 0; i < nw.med.NodeCount(); i++ {
		k := nw.med.NeighborCount(i)
		neigh += k
		st := nw.med.Radio(i).Stats()
		// Static lists make this exact; under mobility the neighbour
		// count is the one at the end of the run.
		c["medium.deliveries"] += float64(st.Transmitted) * float64(k)
		c["phy.decoded"] += float64(st.Decoded)
		c["phy.corrupted"] += float64(st.Corrupted)
		c["phy.missed"] += float64(st.Missed)
		c["phy.captures"] += float64(st.Captures)
	}
	c["medium.neighbor_sum"] += float64(neigh)
	c["medium.nodes"] += float64(nw.med.NodeCount())
	for _, mt := range nw.meters {
		c["mac.goodput_mbps"] += mt.Mbps()
		c["mac.delivered_pkts"] += float64(mt.Packets())
	}
	for _, s := range nw.sources {
		st := s.Stats()
		c["traffic.offered"] += float64(st.Offered)
		c["traffic.accepted"] += float64(st.Accepted)
		c["traffic.dropped"] += float64(st.Dropped)
	}
	if nw.mob != nil {
		c["mobility.moves"] += float64(nw.mob.Epochs) * float64(nw.med.NodeCount())
	}
}

// check returns the reasons this run's results are wrong, if any: a
// dead or NaN aggregate, or an arrival ledger that does not conserve.
func (nw *network) check() []string {
	var bad []string
	var agg float64
	for _, mt := range nw.meters {
		agg += mt.Mbps()
	}
	if !(agg > 0) || math.IsInf(agg, 0) {
		bad = append(bad, fmt.Sprintf("aggregate goodput %v Mb/s over %d flows", agg, len(nw.flows)))
	}
	for i, s := range nw.sources {
		st := s.Stats()
		if d := nw.meters[i].Packets(); st.Offered < st.Accepted || st.Accepted < d {
			bad = append(bad, fmt.Sprintf("flow %d breaks offered %d >= accepted %d >= delivered %d", i, st.Offered, st.Accepted, d))
		}
	}
	return bad
}

// digest hashes every per-flow result bit for bit.
func (nw *network) digest() [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, f := range nw.flows {
		put(uint64(f.Src))
		put(uint64(f.Dst))
		put(math.Float64bits(nw.meters[i].Mbps()))
		put(nw.meters[i].Packets())
		if nw.sources != nil {
			st := nw.sources[i].Stats()
			put(st.Offered)
			put(st.Accepted)
			put(st.Dropped)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// drawSeed derives a run's i-th input draw from its seed.
func drawSeed(seed uint64, i int) uint64 {
	return sim.HashPair(seed, uint64(i))
}

// Rep k runs every arm once on a fresh build of each of the seed's k-th
// topologies.
func (w netWorkload) Rep(seed uint64, k int, tr *tracer) rep {
	r := newRep()
	var last *network
	for d := 0; d < w.draws; d++ {
		sub := drawSeed(seed, k*w.draws+d)
		t0 := time.Now()
		scen := topo.UniformDisk(w.n, w.density, sub)
		r.spans.add("topo.generate", t0)
		for _, name := range w.arms {
			r.op(name, func() []string {
				arm, err := mac.Lookup(name)
				if err != nil {
					return []string{err.Error()}
				}
				nw := w.build(scen, arm, sub, r.spans)
				r.measure(func() float64 { return nw.run(w.dur, tr) })
				nw.counts(r.counts)
				last = nw
				r.digests = append(r.digests, nw.digest())
				return nw.check()
			})
		}
	}
	r.setupS = r.spans["topo.generate"] + r.spans["medium.construct"] + r.spans["mac.attach"]
	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(last) // the last arm's network is the live heap measured
	return r
}

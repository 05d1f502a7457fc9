package experiments

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// goldenSmallVpktPath pins CMAP where its overheard-transmission table
// has the least slack: virtual packets of one and two data packets,
// whose finalisation grace is longer than their airtime; a station that
// both sends and receives, so one table serves the access decision and
// loss attribution; and trailer-less virtual packets, whose receivers
// finalise on a timer. Regenerate an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenSmallVpkt -update
var goldenSmallVpktPath = filepath.Join("testdata", "golden_small_vpkt.json")

// captureSmallVpkt runs each case over three pairs at the quick
// figures' run length, 12 seconds measured over the last 6: shorter
// runs do not reach the losses a too-short retention misattributes.
func captureSmallVpkt() sweepRecorder {
	opt := Options{
		Seed:     1,
		Nodes:    50,
		Duration: 12 * sim.Second,
		Warmup:   6 * sim.Second,
		Pairs:    3,
		Rate:     phy.Rate6Mbps,
	}
	arms, err := ParseArms("cmap:vpkt=1,cmap:vpkt=2")
	if err != nil {
		panic(err)
	}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	var r sweepRecorder

	fig := opt
	fig.Arms = arms
	r.pair("fig12", ExposedTerminals(tb, fig))
	r.pair("fig15", HiddenTerminals(tb, fig))

	// Both ways over the first exposed pair's first link, beside the
	// pair's second flow: the first link's endpoints each send and
	// receive while a third station transmits within earshot.
	p := pairDraws["exposed"].pairs(tb, opt)[0]
	flows := []topo.Link{p.A, {Src: p.A.Dst, Dst: p.A.Src}, p.B}
	for _, arm := range append([]Protocol{CMAP}, arms...) {
		name := fmt.Sprintf("twoway/%s", arm)
		rs := runFlows(tb, flows, arm, opt, opt.Seed+17)
		for i, fr := range rs {
			r.floats(fmt.Sprintf("%s/%d/mbps", name, i), fr.Mbps)
			r.counts(fmt.Sprintf("%s/%d/sent,header,either", name, i), fr.VpktsSent, fr.VpktsHeader, fr.VpktsHdrOrTrail)
		}
	}

	// Trailer-less CMAP stations on the exposed pair: no registry spec
	// reaches core.Config.DisableTrailers, so the stations are built
	// here over the testbed's medium.
	for _, nvpkt := range []int{32, 2} {
		cfg := core.DefaultConfig()
		cfg.DisableTrailers = true
		cfg.Nvpkt = nvpkt
		sched := sim.NewScheduler()
		rng := sim.NewRNG(opt.Seed + 19)
		m := tb.Build(sched, rng.Stream(1))
		nodes := map[int]*core.Node{}
		for _, id := range p.Nodes() {
			nodes[id] = core.New(id, cfg, m, rng.Stream(uint64(1000+id)))
		}
		meters := make([]stats.Meter, 2)
		for i, l := range []topo.Link{p.A, p.B} {
			meters[i] = stats.Meter{Start: opt.Warmup, End: opt.Duration}
			nodes[l.Dst].Meter = &meters[i]
			nodes[l.Src].SetSaturated(l.Dst)
		}
		sched.Run(opt.Duration)
		name := fmt.Sprintf("notrailers/vpkt=%d", nvpkt)
		r.floats(name+"/mbps", meters[0].Mbps(), meters[1].Mbps())
		for _, id := range p.Nodes() {
			s := nodes[id].Stats()
			r.counts(fmt.Sprintf("%s/node%d", name, id), s.VpktsSent, s.Delivered, s.AcksSent,
				s.AckWaitExpired, s.RetxTimeouts, s.Defers, s.Backoffs, s.HeadersHeard)
		}
	}
	return r
}

// TestGoldenSmallVpkt pins the small-virtual-packet, send-and-receive
// and trailer-less cases bit for bit, so a change to how long overheard
// transmissions are kept must leave every loss attribution unchanged.
func TestGoldenSmallVpkt(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tier runs via make golden, not the -short tier")
	}
	checkGoldenSeries(t, goldenSmallVpktPath, captureSmallVpkt())
}

package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// campaignTestOptions is the smallest sweep that still exercises every
// recorded field: 2 pairs × csma/cmap under Poisson arrivals, so each
// trial carries arrival counters and a latency recorder.
func campaignTestOptions() Options {
	opt := Quick(1)
	opt.Duration = 2 * sim.Second
	opt.Warmup = 500 * sim.Millisecond
	opt.Pairs = 2
	opt.Traffic = traffic.Spec{Kind: traffic.Poisson}
	return opt
}

// requireSameSweep compares two load sweeps bit-exactly: every goodput
// and fairness sample through its IEEE-754 pattern, plus the pooled
// latency percentiles and the arrival counters.
func requireSameSweep(t *testing.T, label string, a, b *LoadSweep) {
	t.Helper()
	if len(a.Points) != len(b.Points) || len(a.Arms) != len(b.Arms) {
		t.Fatalf("%s: %d points × %d arms vs %d × %d", label, len(a.Points), len(a.Arms), len(b.Points), len(b.Arms))
	}
	sameBits := func(what string, xs, ys []float64) {
		t.Helper()
		if len(xs) != len(ys) {
			t.Errorf("%s %s: %d vs %d samples", label, what, len(xs), len(ys))
			return
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) {
				t.Errorf("%s %s[%d]: %v (%016x) vs %v (%016x)", label, what, i,
					xs[i], math.Float64bits(xs[i]), ys[i], math.Float64bits(ys[i]))
			}
		}
	}
	for i := range a.Points {
		pa, pb := &a.Points[i], &b.Points[i]
		for _, arm := range a.Arms {
			sameBits("goodput "+arm.String(), pa.Aggregate[arm].Xs, pb.Aggregate[arm].Xs)
			sameBits("fairness "+arm.String(), pa.Fairness[arm].Xs, pb.Fairness[arm].Xs)
			la, lb := pa.Latency[arm], pb.Latency[arm]
			sameBits("latency percentiles "+arm.String(),
				[]float64{la.P50(), la.P95(), la.P99()}, []float64{lb.P50(), lb.P95(), lb.P99()})
			if la.N() != lb.N() {
				t.Errorf("%s point %d %v: %d vs %d latency samples", label, i, arm, la.N(), lb.N())
			}
			if pa.Offered[arm] != pb.Offered[arm] || pa.Dropped[arm] != pb.Dropped[arm] {
				t.Errorf("%s point %d %v: offered/dropped %d/%d vs %d/%d", label, i, arm,
					pa.Offered[arm], pa.Dropped[arm], pb.Offered[arm], pb.Dropped[arm])
			}
		}
	}
}

// TestCampaignResumeBitIdentical pins the campaign contract the
// load-sweep figure relies on: a sweep recorded into a campaign, and a
// sweep resumed over a manifest that lost half its trials (a simulated
// kill), both equal the sweep that never saw a campaign.
func TestCampaignResumeBitIdentical(t *testing.T) {
	opt := campaignTestOptions()
	loads := []float64{1, 6}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	const hash = "campaign-test"

	plain, err := OfferedLoadCampaign(tb, "exposed", loads, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := plain.Points[0].Latency[CMAP].N(); n == 0 {
		t.Fatal("sweep recorded no latency samples; the comparison below would be vacuous")
	}

	fresh := t.TempDir()
	camp, err := checkpoint.OpenCampaign(fresh, hash)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := OfferedLoadCampaign(tb, "exposed", loads, opt, camp)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSweep(t, "recorded vs plain", plain, recorded)
	keys := camp.Keys()
	if want := len(loads) * opt.Pairs * len(plain.Arms); len(keys) != want {
		t.Fatalf("campaign recorded %d trials, want %d: %v", len(keys), want, keys)
	}

	// The simulated kill: a copy of the finished manifest with every
	// other loadsweep trial missing.
	data, err := os.ReadFile(filepath.Join(fresh, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ConfigHash string                     `json:"config_hash"`
		Done       map[string]json.RawMessage `json:"done"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if !strings.HasPrefix(k, "loadsweep/") {
			t.Fatalf("unexpected campaign key %q", k)
		}
		if i%2 == 0 {
			delete(m.Done, k)
		}
	}
	killed := t.TempDir()
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(killed, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	camp, err = checkpoint.OpenCampaign(killed, hash)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(camp.Keys()); got != len(keys)/2 {
		t.Fatalf("killed campaign holds %d trials, want %d", got, len(keys)/2)
	}
	resumed, err := OfferedLoadCampaign(tb, "exposed", loads, opt, camp)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSweep(t, "resumed vs plain", plain, resumed)
	if got := len(camp.Keys()); got != len(keys) {
		t.Errorf("resumed campaign holds %d trials, want %d", got, len(keys))
	}
}

// TestCampaignReplaysRecordedResults is the FlowResult round trip
// through the manifest: every field, with and without a latency
// recorder, comes back bit-exactly, and a recorded trial is replayed
// rather than re-run.
func TestCampaignReplaysRecordedResults(t *testing.T) {
	lat := &stats.Latency{W: stats.Window{Start: sim.Second, End: 3 * sim.Second}}
	for _, ms := range []sim.Time{7, 3, 11} {
		lat.Record(2*sim.Second, ms*sim.Millisecond+ms) // out of order, non-round
	}
	want := [][]FlowResult{
		{
			{Link: topo.Link{Src: 3, Dst: 9}, Mbps: 5.4321987654321, VpktsSent: 10, VpktsHeader: 9, VpktsHdrOrTrail: 8,
				OfferedPkts: 7, AcceptedPkts: 6, DroppedPkts: 1, DeliveredPkts: 5, Lat: lat},
			{Link: topo.Link{Src: 9, Dst: 3}, Mbps: 1.0 / 3},
		},
		{{Link: topo.Link{Src: 1, Dst: 2}}},
	}
	keys := []string{"trial/0", "trial/1"}
	camp, err := checkpoint.OpenCampaign(t.TempDir(), "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.Config{Workers: 1}
	key := func(i int) string { return keys[i] }
	first, err := resumableMap(camp, pool, len(keys), key, func(i int) []FlowResult { return want[i] })
	if err != nil {
		t.Fatal(err)
	}
	// Reopen, so the replay reads what reached the disk.
	camp, err = checkpoint.OpenCampaign(camp.Dir(), "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := resumableMap(camp, pool, len(keys), key, func(i int) []FlowResult {
		t.Errorf("trial %d re-ran although the campaign recorded it", i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		requireSameResults(t, keys[i]+" first", want[i], first[i])
		requireSameResults(t, keys[i]+" replayed", want[i], replayed[i])
	}
}

// TestCampaignHashCoversOptions guards the campaign config hash, which
// is the JSON of Options: a field added to Options must either appear
// in that JSON (so changing it refuses a stale campaign) or be listed
// here as unable to change a number.
func TestCampaignHashCoversOptions(t *testing.T) {
	unhashed := map[string]bool{"Workers": true, "Progress": true}
	opt := Quick(1)
	opt.Progress = func(done, total int) {}
	data, err := json.Marshal(opt)
	if err != nil {
		t.Fatalf("Options does not marshal, so it cannot be hashed: %v", err)
	}
	var hashed map[string]json.RawMessage
	if err := json.Unmarshal(data, &hashed); err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(opt)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, in := hashed[name]
		switch {
		case in && unhashed[name]:
			t.Errorf("Options.%s is listed as unhashed but is in the hashed JSON", name)
		case !in && !unhashed[name]:
			t.Errorf("Options.%s is missing from the hashed JSON: a resumed campaign would not notice it changing", name)
		}
		delete(unhashed, name)
	}
	for name := range unhashed {
		t.Errorf("exclusion list names Options.%s, which does not exist", name)
	}
}

package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/frame"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// listener is a phy.Handler that does nothing: attached to a radio it
// makes the channel deliver frames there, and that is all.
type listener struct{}

func (listener) OnFrame(frame.Frame, phy.RxInfo) {}
func (listener) OnCorrupt(phy.RxInfo)            {}
func (listener) OnTxDone(frame.Frame)            {}
func (listener) OnCarrier(bool)                  {}

// radioOf returns node id's radio.
func radioOf(fs *FlowSim, id int) *phy.Radio { return fs.m.Radio(id) }

// radioState is node id's radio state in its checkpoint form, the
// bytes a checkpoint would store for it.
func radioState(t *testing.T, fs *FlowSim, id int) string {
	t.Helper()
	b, err := json.Marshal(&radioOf(fs, id).RadioState)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAttendedFanoutEquivalence is the proof that a radio no station
// listens on is unobservable. Each case runs twice: as NewFlowSim builds
// it, where frames reach only the flows' endpoints, and with a listener
// put on every other radio before the first station exists, where every
// frame reaches every radio in range as it did before fan-out skipped
// anybody. A bystander transmits nothing, draws from its own RNG stream
// and makes no upcall anyone acts on, so the two runs must agree on
// every FlowResult bit for bit and on the complete state of every
// station's radio — counters, the bits of totalMW, the signals on the
// air, the lock, the RNG position. The matrix is every golden topology
// × every registered arm, static and under the walk and vehicular
// movement models.
func TestAttendedFanoutEquivalence(t *testing.T) {
	const seed = 1
	opt := conformanceOptions(seed)
	tb := topo.NewTestbed(opt.Nodes, seed)
	arms := conformanceArms()
	if testing.Short() {
		arms = []Protocol{CSMAOn, CMAP, "rtscts"}
	}
	variants := []struct {
		name string
		mob  mobility.Spec
	}{
		{"static", mobility.Spec{}},
		{"walk", mobility.Spec{Kind: mobility.RandomWalk, SpeedMps: 2, RangeM: 12, DecorrM: 10}},
		{"vehicular", mobility.Spec{Kind: mobility.Vehicular, SpeedMps: 15, DecorrM: 10}},
	}
	for ti, tp := range goldenTopologies(tb, seed) {
		for _, arm := range arms {
			for _, v := range variants {
				ti, tp, arm, v := ti, tp, arm, v
				t.Run(tp.name+"/"+string(arm)+"/"+v.name, func(t *testing.T) {
					t.Parallel()
					runSeed := seed + uint64(ti)*7919 + arm.seedSalt()*104729
					cfg := flowSimConfig(string(arm), tp.flows, opt, traffic.Saturate(), runSeed)
					cfg.Mobility = v.mob
					station := map[int]bool{}
					for _, f := range tp.flows {
						station[f.Src], station[f.Dst] = true, true
					}

					built, err := NewFlowSim(tb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					everyone, err := newFlowSim(tb, cfg, func(fs *FlowSim) {
						for id := 0; id < tb.N; id++ {
							if !station[id] {
								radioOf(fs, id).SetHandler(listener{})
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					built.Run(opt.Duration)
					everyone.Run(opt.Duration)

					requireSameResults(t, "attended only vs everyone attended", built.Results(), everyone.Results())
					var skipped, heard uint64
					for id := 0; id < tb.N; id++ {
						if station[id] {
							if a, b := radioState(t, built, id), radioState(t, everyone, id); a != b {
								t.Errorf("station %d's radio diverged:\n attended only     %s\n everyone attended %s", id, a, b)
							}
							continue
						}
						// Not vacuous: the reference's bystanders really were
						// delivered frames the built run's were spared.
						a, b := radioOf(built, id).Stats(), radioOf(everyone, id).Stats()
						skipped += a.Missed + a.Weak
						heard += b.Missed + b.Weak
					}
					if heard == 0 || skipped >= heard {
						t.Fatalf("bystanders counted %d arrivals as built and %d with everyone attended; the two runs do not differ in who hears", skipped, heard)
					}
				})
			}
		}
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Every layer's live mutable state is its checkpoint form. Two checks
// per layer keep it that way: a completeness test (no live field is
// neither stored nor named as derived) and a round-trip test (export at
// a mid-run cut, restore into a fresh skeleton, export again: the same
// bytes, which a forgotten re-link breaks — an unattached timer exports
// as unset).

// unstored lists the fields of v's struct type a checkpoint would drop
// without anybody having decided so, and the derived names that match no
// field. At the top level only embedded fields — the state struct — are
// stored, unless whole says the type is its own state; every other
// top-level field must be named in derived as "Type.field". Below it,
// every exported field not tagged json:"-" is stored, and the walk
// descends into the struct types those fields hold (through pointers,
// slices, arrays and map keys and values) that are declared in v's
// package and do not encode themselves; their unexported fields must be
// named in derived too.
func unstored(v any, whole bool, derived ...string) (missing, stale []string) {
	root := reflect.TypeOf(v)
	listed := map[string]bool{}
	for _, d := range derived {
		listed[d] = true
	}
	marshaler := reflect.TypeFor[json.Marshaler]()
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, top bool)
	walk = func(t reflect.Type, top bool) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem(), false)
			return
		case reflect.Map:
			walk(t.Key(), false)
			walk(t.Elem(), false)
			return
		case reflect.Struct:
		default:
			return
		}
		if seen[t] || t.PkgPath() != root.PkgPath() || reflect.PointerTo(t).Implements(marshaler) {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := t.Name() + "." + f.Name
			switch {
			case f.Anonymous || !top && f.IsExported() && f.Tag.Get("json") != "-":
				walk(f.Type, false)
			case listed[name]:
				delete(listed, name)
			default:
				missing = append(missing, name)
			}
		}
	}
	walk(root, !whole)
	for name := range listed {
		stale = append(stale, name)
	}
	slices.Sort(stale)
	return missing, stale
}

// TestStateComplete is the completeness test of every stateful layer:
// each live field is in the layer's state struct or on its derived list
// (structure rebuilt by construction, pools and buffers, and the
// references a restore re-links), and the derived list names no field
// that does not exist.
func TestStateComplete(t *testing.T) {
	for _, tc := range []struct {
		layer   string
		v       any
		whole   bool
		derived []string
	}{
		{"core", core.Node{}, false, []string{"Node.id", "Node.cfg", "Node.radio", "Node.sched", "Node.addr", "Node.Meter", "Node.OnDeliver",
			"Node.flowByDst", "Node.seqBuf", "Node.curBuf", "Node.hdrBuf", "Node.trlBuf", "Node.dataBuf", "Node.targBuf", "Node.ackFree",
			"Node.listBuf", "Node.listRetry", "Node.listBusy", "observations.cfg", "observations.free", "rxFlow.curBuf", "rxFlow.gotBuf", "vpktTx.flow"}},
		{"csma", csma.Node{}, false, []string{"Node.id", "Node.cfg", "Node.radio", "Node.sched", "Node.addr", "Node.Meter", "Node.OnDeliver",
			"Node.ackFree", "Node.ctsFree"}},
		{"phy", phy.Radio{}, false, []string{"Radio.id", "Radio.sched", "Radio.channel", "Radio.handler", "Radio.exact"}},
		{"medium", medium.Medium{}, false, []string{"Medium.sched", "Medium.params", "Medium.model", "Medium.positions", "Medium.radios",
			"Medium.deliveries", "Medium.floor", "Medium.screen", "Medium.gridBacked", "Medium.attended", "Medium.attachAt", "Medium.heard", "Medium.heardVer", "Medium.ver", "Medium.arena",
			"Medium.txFree", "Medium.mv"}},
		{"traffic", traffic.Source{}, false, []string{"Source.sched", "Source.spec", "Source.q", "Source.dst", "Source.meanGapNs"}},
		{"mobility", mobility.Manager{}, false, []string{"Manager.spec", "Manager.arena", "Manager.med", "Manager.ch", "Manager.epoch", "Manager.ids", "Manager.pts"}},
		{"stats-meter", stats.Meter{}, true, nil},
		{"stats-latency", stats.Latency{}, true, nil},
	} {
		t.Run(tc.layer, func(t *testing.T) {
			missing, stale := unstored(tc.v, tc.whole, tc.derived...)
			for _, name := range missing {
				t.Errorf("%s is neither in the state struct nor on the derived list: a checkpoint would drop it", name)
			}
			for _, name := range stale {
				t.Errorf("derived list names %s, which does not exist", name)
			}
		})
	}
}

// stateCases are the configurations the round-trip test and the fuzz
// harness cut mid-run, one per layer they exercise beyond the
// scheduler, medium, radios and recorders every case has.
func stateCases() []struct {
	layer string
	cfg   FlowSimConfig
} {
	opt := conformanceOptions(1)
	tb := stateTestbed()
	flows := goldenTopologies(tb, 1)[0].flows
	churn := traffic.PoissonAt(300)
	churn.UpMean, churn.DownMean = 120*sim.Millisecond, 120*sim.Millisecond
	mk := func(arm Protocol, spec traffic.Spec, mob mobility.Spec) FlowSimConfig {
		cfg := flowSimConfig(string(arm), flows, opt, spec, 1+arm.seedSalt()*104729)
		cfg.Mobility = mob
		return cfg
	}
	waypoint := mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 5, RangeM: 12, DecorrM: 10}
	return []struct {
		layer string
		cfg   FlowSimConfig
	}{
		{"core", mk(CMAP, traffic.Saturate(), mobility.Spec{})},
		{"csma", mk(CSMAOn, traffic.Saturate(), mobility.Spec{})},
		{"csma-rtscts", mk(RTSCTS, traffic.Saturate(), mobility.Spec{})},
		{"traffic", mk(CMAP, churn, mobility.Spec{})},
		{"mobility", mk(CSMAOn, churn, waypoint)},
	}
}

// stateTestbed is the golden testbed every state case runs on.
var stateTestbed = sync.OnceValue(func() *topo.Testbed { return topo.NewTestbed(conformanceOptions(1).Nodes, 1) })

// cutPayload runs cfg to its midpoint and returns the checkpoint bytes.
func cutPayload(t testing.TB, cfg FlowSimConfig) []byte {
	t.Helper()
	fs, err := NewFlowSim(stateTestbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.Run(cfg.Duration / 2)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadSections splits a checkpoint into its payload's sections, the
// components one by one, so a mismatch names the layer.
func payloadSections(t *testing.T, ck []byte) map[string]string {
	t.Helper()
	raw, err := checkpoint.Load(bytes.NewReader(ck), "")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	var comps map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["comps"], &comps); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for k, v := range top {
		out[k] = string(v)
	}
	for k, v := range comps {
		out["comps/"+k] = string(v)
	}
	return out
}

// TestStateRoundTrip is the round-trip test of every stateful layer:
// a checkpoint restored into a fresh skeleton exports the same bytes.
func TestStateRoundTrip(t *testing.T) {
	for _, tc := range stateCases() {
		t.Run(tc.layer, func(t *testing.T) {
			t.Parallel()
			first := cutPayload(t, tc.cfg)
			fs, err := NewFlowSim(stateTestbed(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Resume(bytes.NewReader(first)); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := fs.Save(&again); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(first, again.Bytes()) {
				return
			}
			a, b := payloadSections(t, first), payloadSections(t, again.Bytes())
			for k := range a {
				if a[k] == b[k] || k == "comps" {
					continue
				}
				i := 0
				for i < min(len(a[k]), len(b[k])) && a[k][i] == b[k][i] {
					i++
				}
				from := max(i-80, 0)
				t.Errorf("%s changed across export → restore → export, at byte %d:\n  …%.160s\n  …%.160s", k, i, a[k][from:], b[k][from:])
			}
		})
	}
}

// envelope wraps a (possibly damaged) payload in a checkpoint envelope
// with a valid digest and the skeleton's configuration hash: what a user
// who edits a checkpoint file and re-stamps it hands to -resume.
func envelope(hash string, payload []byte) []byte {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, hash, json.RawMessage(payload)); err != nil {
		// Not JSON any more: stamp it by hand, so Load sees the damage.
		return fmt.Appendf(nil, `{"magic":%q,"version":%d,"config_hash":%q,"payload_sha256":"","payload":%s}`,
			checkpoint.Magic, checkpoint.Version, hash, payload)
	}
	return buf.Bytes()
}

// resumeEdited resumes a fresh skeleton of cfg from payload, edited by
// ops and re-stamped. A resume that succeeds then runs on for a few
// milliseconds, so state accepted at resume and fatal on first use
// panics here.
func resumeEdited(t testing.TB, cfg FlowSimConfig, payload, ops []byte) error {
	fs, err := NewFlowSim(stateTestbed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := checkpoint.Load(bytes.NewReader(payload), "")
	if err != nil {
		t.Fatal(err)
	}
	edited := editJSON(raw, ops)
	hung := time.AfterFunc(20*time.Second, func() { panic(fmt.Sprintf("Resume hung on a payload edited by %v", ops)) })
	defer hung.Stop()
	if err := fs.Resume(bytes.NewReader(envelope(fs.ConfigHash(), edited))); err != nil {
		return err
	}
	fs.Run(fs.Now() + 50*sim.Millisecond)
	return nil
}

// TestResumeRejectsBadSeqs: the seq defects a hand-edited checkpoint
// could carry past Resume — an event seq listed twice, an event seq and
// a timer seq the scheduler has not issued — come back as sim.ErrSeq; a
// timer naming a seq that already fired is inactive, and the resumed run
// goes on.
func TestResumeRejectsBadSeqs(t *testing.T) {
	tc := stateCases()[0]
	payload := cutPayload(t, tc.cfg)
	for _, ops := range seqDamage {
		if err := resumeEdited(t, tc.cfg, payload, ops); !errors.Is(err, sim.ErrSeq) {
			t.Errorf("resume of a payload edited by %v: %v, want %v", ops, err, sim.ErrSeq)
		}
	}
	if err := resumeEdited(t, tc.cfg, payload, []byte{opSetKey, keyAckTimer, 0, litZero}); err != nil {
		t.Errorf("resume with a timer naming a fired seq: %v", err)
	}
}

// seqDamage are the edits that must give sim.ErrSeq: two events given
// one seq, an event seq beyond next_seq, a timer seq beyond it.
var seqDamage = [][]byte{
	{opSetKey, keySeq, 0, litSeven, opSetKey, keySeq, 1, litSeven},
	{opSetKey, keySeq, 0, litFarSeq},
	{opSetKey, keyAckTimer, 0, litFarSeq},
}

// TestResumeRejectsNullEntries: a CMAP node's observation table and loss
// statistics hold pointers, and a null one in the payload is refused at
// resume rather than dereferenced by the first lookup after it.
func TestResumeRejectsNullEntries(t *testing.T) {
	tc := stateCases()[0]
	payload := cutPayload(t, tc.cfg)
	for _, ops := range [][]byte{
		{opSetKey, keyObs, 0, litNullObs},
		{opSetKey, keyObs, 0, litNullStat},
	} {
		if err := resumeEdited(t, tc.cfg, payload, ops); err == nil {
			t.Errorf("resume of a payload edited by %v succeeded", ops)
		}
	}
}

// FuzzRestoreState damages real mid-run checkpoints — csma, cmap and
// rtscts, Poisson churn, waypoint mobility — by byte flips,
// truncation, replaced and swapped numbers, swapped arrays and replaced
// values, re-stamps the digest and configuration hash, and requires
// Resume to return (an error or nil) without panicking or hanging, and a
// resumed simulation to run on without panicking. The in-code seeds
// include the seq defects TestResumeRejectsBadSeqs pins and the null
// table entries TestResumeRejectsNullEntries pins.
func FuzzRestoreState(f *testing.F) {
	cases := stateCases()
	payloads := make([][]byte, len(cases))
	for i, tc := range cases {
		payloads[i] = cutPayload(f, tc.cfg)
	}
	for i := range cases {
		for _, ops := range seqDamage {
			f.Add(uint8(i), ops)
		}
	}
	f.Add(uint8(0), []byte{opNumber, 0, 40, 3, opSwapArrays, 2, 9, 0})
	f.Add(uint8(1), []byte{opFlip, 1, 200, 7})
	f.Add(uint8(2), []byte{opTruncate, 3, 0, 0})
	f.Add(uint8(3), []byte{opSwapNumbers, 5, 77, 0, opSetKey, keyTimes, 0, litEmptyArray})
	f.Add(uint8(4), []byte{opSetKey, keyPos, 0, litNull})
	f.Add(uint8(0), []byte{opSetKey, keyActive, 1, litNullList})
	f.Add(uint8(0), []byte{opSetKey, keyObs, 0, litNullObs})
	f.Add(uint8(0), []byte{opSetKey, keyObs, 0, litNullStat})
	f.Fuzz(func(t *testing.T, base uint8, ops []byte) {
		i := int(base) % len(cases)
		resumeEdited(t, cases[i].cfg, payloads[i], ops)
	})
}

// The edit language FuzzRestoreState decodes its input in: four bytes
// per edit, an operation and three arguments.
const (
	opFlip        = iota // byte at (x<<8|y) ^= z|1
	opTruncate           // cut at (x<<8|y)
	opNumber             // number x<<8|y := numLits[z]
	opSwapNumbers        // swap numbers x and y
	opSwapArrays         // swap arrays x and y, if disjoint
	opSetKey             // value of occurrence y of keys[x] := valueLits[z]
	numOps
)

var (
	numLits   = []string{"0", "-1", "1", "7", "99", "4294967296", "-9223372036854775808", "18446744073709551615", "1e300", "0.5"}
	keys      = []string{"next_seq", "seq", "events", "fired", "ack_timer", "fin_timer", "arrival", "active", "locked_tx_id", "rx", "flows", "cur", "obs", "nodes", "pos", "times", "mask", "weak_n", "total_mw", "radios", "comps", "deliveries", "from", "rate", "frame", "kind", "owner", "arg", "at", "now", "seqs", "got", "retx", "unacked", "sack", "interf_stats", "defer_tab", "entries", "queue", "last_seq", "shadow"}
	valueLits = []string{"null", "[]", "{}", "0", "-1", "[99]", "[0,0]", "7", "999999999999", `"x"`, "true", "[{}]", "[null]", "1e300", "[0]",
		`{"entries":[null]}`, `{},"interf_stats":[{"k":{},"v":null}]`}
)

// Indices into the tables above that the seeds name.
const (
	keySeq, keyAckTimer, keyTimes, keyPos, keyActive, keyObs = 1, 4, 15, 14, 7, 12
	litNull, litEmptyArray, litZero, litSeven, litFarSeq     = 0, 1, 3, 7, 8
	litNullList, litNullObs, litNullStat                     = 12, 15, 16
)

// editJSON applies ops to a copy of doc.
func editJSON(doc, ops []byte) []byte {
	b := append([]byte(nil), doc...)
	for k := 0; k+3 < len(ops); k += 4 {
		op, x, y, z := ops[k]%numOps, int(ops[k+1]), int(ops[k+2]), int(ops[k+3])
		if len(b) == 0 {
			break
		}
		pos := (x<<8 | y) % len(b)
		nums, arrays, vals := scanJSON(b)
		switch op {
		case opFlip:
			b[pos] ^= byte(z) | 1
		case opTruncate:
			b = b[:pos]
		case opNumber:
			if len(nums) > 0 {
				b = splice(b, nums[(x<<8|y)%len(nums)], numLits[z%len(numLits)])
			}
		case opSwapNumbers:
			if len(nums) > 1 {
				b = swap(b, nums[x%len(nums)], nums[y%len(nums)])
			}
		case opSwapArrays:
			if len(arrays) > 1 {
				b = swap(b, arrays[x%len(arrays)], arrays[y%len(arrays)])
			}
		case opSetKey:
			if spans := vals[keys[x%len(keys)]]; len(spans) > 0 {
				b = splice(b, spans[y%len(spans)], valueLits[z%len(valueLits)])
			}
		}
	}
	return b
}

// splice replaces b[s[0]:s[1]] with v.
func splice(b []byte, s [2]int, v string) []byte {
	return slices.Concat(b[:s[0]], []byte(v), b[s[1]:])
}

// swap exchanges two disjoint spans of b.
func swap(b []byte, s1, s2 [2]int) []byte {
	if s1[0] > s2[0] {
		s1, s2 = s2, s1
	}
	if s1[1] > s2[0] {
		return b // overlapping or nested
	}
	return slices.Concat(b[:s1[0]], b[s2[0]:s2[1]], b[s1[1]:s2[0]], b[s1[0]:s1[1]], b[s2[1]:])
}

// scanJSON indexes compact JSON: the spans of its numbers and arrays,
// and the value spans of every object key.
func scanJSON(b []byte) (nums, arrays [][2]int, vals map[string][][2]int) {
	vals = map[string][][2]int{}
	var open []int
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			end := stringEnd(b, i)
			if end < len(b) && b[end] == ':' {
				key := string(b[i+1 : end-1])
				vals[key] = append(vals[key], [2]int{end + 1, valueEnd(b, end+1)})
			}
			i = end - 1
		case c == '[':
			open = append(open, i)
		case c == ']' && len(open) > 0:
			arrays = append(arrays, [2]int{open[len(open)-1], i + 1})
			open = open[:len(open)-1]
		case c == '-' || c >= '0' && c <= '9':
			j := i + 1
			for j < len(b) && strings.IndexByte("0123456789+-.eE", b[j]) >= 0 {
				j++
			}
			nums = append(nums, [2]int{i, j})
			i = j - 1
		}
	}
	return nums, arrays, vals
}

// stringEnd returns the index just past the string starting at b[i].
func stringEnd(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1
		}
	}
	return len(b)
}

// valueEnd returns the index just past the JSON value starting at b[i].
func valueEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '"' {
		return stringEnd(b, i)
	}
	depth := 0
	for j := i; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			j = stringEnd(b, j) - 1
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			if depth == 0 {
				return j
			}
			if depth--; depth == 0 {
				return j + 1
			}
		case c == ',' && depth == 0:
			return j
		}
	}
	return len(b)
}

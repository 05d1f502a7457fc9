package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

type testPayload struct {
	Clock uint64  `json:"clock"`
	Items []int   `json:"items"`
	X     float64 `json:"x"`
}

func savedBytes(t *testing.T, hash string, p testPayload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, hash, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	want := testPayload{Clock: 123456789, Items: []int{3, 1, 4, 1, 5}, X: 0.1}
	hash := ConfigHash(map[string]int{"n": 50})
	data := savedBytes(t, hash, want)
	raw, err := Load(bytes.NewReader(data), hash)
	if err != nil {
		t.Fatal(err)
	}
	var got testPayload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Clock != want.Clock || got.X != want.X || len(got.Items) != len(want.Items) {
		t.Fatalf("round trip: %+v vs %+v", got, want)
	}
	// An empty wantConfigHash skips the config check (inspection mode).
	if _, err := Load(bytes.NewReader(data), ""); err != nil {
		t.Fatalf("hash-less load: %v", err)
	}
	// Save writes exactly json.Marshal's bytes for the whole envelope.
	body, _ := json.Marshal(want)
	env, _ := json.Marshal(envelope{Magic: Magic, Version: Version, ConfigHash: hash, PayloadSHA: payloadSHA(body), Payload: body})
	if !bytes.Equal(data, append(env, '\n')) {
		t.Fatalf("Save wrote\n%s\nthe envelope marshals as\n%s", data, env)
	}
}

// TestLoadFailureModes is the damage table: every way a checkpoint file
// can be bad maps to its typed error, and no payload is ever returned
// alongside one.
func TestLoadFailureModes(t *testing.T) {
	hash := ConfigHash("config-A")
	good := savedBytes(t, hash, testPayload{Clock: 42, Items: []int{1, 2}})
	// reversion re-stamps the envelope; the payload and its digest stay
	// valid, so the version check alone must refuse it.
	reversion := func(v string) []byte {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		env["version"] = json.RawMessage(v)
		d, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name    string
		data    func() []byte
		hash    string
		wantErr error
	}{
		{"empty file", func() []byte { return nil }, hash, ErrTruncated},
		{"truncated mid-envelope", func() []byte { return good[:len(good)/2] }, hash, ErrTruncated},
		{"truncated to one byte", func() []byte { return good[:1] }, hash, ErrTruncated},
		{"payload bit flip", func() []byte {
			d := append([]byte(nil), good...)
			// Flip a digit inside the payload's clock value without
			// breaking JSON syntax.
			i := bytes.Index(d, []byte(`"clock":42`))
			if i < 0 {
				t.Fatal("fixture drift: clock not found")
			}
			d[i+len(`"clock":`)] = '9'
			return d
		}, hash, ErrCorrupt},
		{"wrong magic", func() []byte {
			return bytes.Replace(good, []byte(Magic), []byte("notackpt"), 1)
		}, hash, ErrCorrupt},
		{"garbage", func() []byte { return []byte("this is not json{") }, hash, ErrCorrupt},
		{"version bump", func() []byte { return reversion("99") }, hash, ErrVersionMismatch},
		// Version 1 listed sub-sensitivity signals in the radios' active
		// sets; this binary would depart them through the wrong path.
		{"version 1 envelope", func() []byte { return reversion("1") }, hash, ErrVersionMismatch},
		// Version 2 had every radio in range holding each in-flight
		// signal; the ones no station listens on would never be departed.
		{"version 2 envelope", func() []byte { return reversion("2") }, hash, ErrVersionMismatch},
		// Version 3 kept hand-copied mirrors of every layer's state; its
		// field names and map encodings are not the live structs'.
		{"version 3 envelope", func() []byte { return reversion("3") }, hash, ErrVersionMismatch},
		// Version 4 stored each in-flight frame's whole delivery row;
		// this binary would depart radios the frame never arrived at.
		{"version 4 envelope", func() []byte { return reversion("4") }, hash, ErrVersionMismatch},
		// Version 5 stored timers as [slot, gen, at] against a slot table
		// this binary no longer keeps.
		{"version 5 envelope", func() []byte { return reversion("5") }, hash, ErrVersionMismatch},
		// Version 6 held a separate tx-done event per frame on the agenda,
		// an event shape this binary no longer decodes.
		{"version 6 envelope", func() []byte { return reversion("6") }, hash, ErrVersionMismatch},
		// Version 7 stored each station's counters under its arm's own
		// field names, not mac.Counters'.
		{"version 7 envelope", func() []byte { return reversion("7") }, hash, ErrVersionMismatch},
		{"config mismatch", func() []byte { return good }, ConfigHash("config-B"), ErrConfigMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := Load(bytes.NewReader(tc.data()), tc.hash)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if raw != nil {
				t.Fatal("payload returned alongside an error")
			}
		})
	}
}

func TestConfigHashStable(t *testing.T) {
	type cfg struct {
		Seed  uint64
		Loads []float64
	}
	a := ConfigHash(cfg{Seed: 1, Loads: []float64{0.5, 1}})
	b := ConfigHash(cfg{Seed: 1, Loads: []float64{0.5, 1}})
	c := ConfigHash(cfg{Seed: 2, Loads: []float64{0.5, 1}})
	if a != b {
		t.Fatal("equal configs hash differently")
	}
	if a == c {
		t.Fatal("different configs hash equally")
	}
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	hash := ConfigHash(7)
	save := func(w io.Writer) error { return Save(w, hash, testPayload{Clock: 9}) }
	if err := SaveFile(path, save); err != nil {
		t.Fatal(err)
	}
	// No temp residue after a successful install.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := Load(f, hash)
	if err != nil {
		t.Fatal(err)
	}
	var p testPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if p.Clock != 9 {
		t.Fatalf("clock %d", p.Clock)
	}
	// A failing writer leaves neither the file nor its temp behind.
	bad := filepath.Join(dir, "bad.json")
	if err := SaveFile(bad, func(io.Writer) error { return errors.New("boom") }); err == nil {
		t.Fatal("SaveFile reported success for a failing writer")
	}
	if _, err := os.Stat(bad + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after a failed save: %v", err)
	}
}

// TestMapAndSetEncodeSorted: the struct-keyed map and the set write
// their entries in one order whatever the map's layout, and read back
// what they wrote; a key or member listed twice, and a set that is not
// an array, is refused.
func TestMapAndSetEncodeSorted(t *testing.T) {
	type key struct{ A, B int }
	m := Map[key, string]{}
	var s Set
	for i := 40; i > 0; i-- {
		m[key{i % 7, i}] = strings.Repeat("x", i%3)
		s.Add(uint32(i * i))
	}
	for _, v := range []any{m, s} {
		first, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for range 5 {
			if again, _ := json.Marshal(v); !bytes.Equal(again, first) {
				t.Fatalf("%T encoded two ways:\n%s\n%s", v, first, again)
			}
		}
	}
	var m2 Map[key, string]
	var s2 Set
	mb, _ := json.Marshal(m)
	sb, _ := json.Marshal(s)
	if err := json.Unmarshal(mb, &m2); err != nil || !reflect.DeepEqual(m, m2) {
		t.Fatalf("map round trip: %v", err)
	}
	if err := json.Unmarshal(sb, &s2); err != nil || !slices.Equal(members(&s), members(&s2)) {
		t.Fatalf("set round trip: %v", err)
	}
	if err := json.Unmarshal([]byte(`[{"k":{"A":1,"B":2},"v":"a"},{"k":{"A":1,"B":2},"v":"b"}]`), &m2); err == nil {
		t.Fatal("a map key listed twice was accepted")
	}
	for _, bad := range []string{`[3,1,3]`, `7`, `{"1":{}}`} {
		if err := json.Unmarshal([]byte(bad), &s2); err == nil {
			t.Fatalf("set %s was accepted", bad)
		}
	}
}

func TestCampaignCompleteReopen(t *testing.T) {
	dir := t.TempDir()
	hash := ConfigHash("campaign-config")
	c, err := OpenCampaign(dir, hash)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Done("p1"); ok {
		t.Fatal("fresh campaign reports a completed point")
	}
	if err := c.Complete("p1", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("p2", "text result"); err != nil {
		t.Fatal(err)
	}

	// Reopen under the same config: both points recorded, results intact.
	c2, err := OpenCampaign(dir, hash)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := c2.Done("p1")
	if !ok {
		t.Fatal("p1 lost across reopen")
	}
	var xs []int
	if err := json.Unmarshal(raw, &xs); err != nil || len(xs) != 3 {
		t.Fatalf("p1 result: %v %v", xs, err)
	}
	if keys := c2.Keys(); len(keys) != 2 || keys[0] != "p1" || keys[1] != "p2" {
		t.Fatalf("keys: %v", keys)
	}

	// Reopen under a different config must refuse.
	if _, err := OpenCampaign(dir, ConfigHash("other-config")); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("err = %v, want ErrConfigMismatch", err)
	}

	// A corrupt manifest must refuse, not silently start over.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCampaign(dir, hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCampaignConcurrentComplete(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCampaign(dir, ConfigHash(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			done <- c.Complete(strings.Repeat("k", i+1), i)
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Keys()); got != 16 {
		t.Fatalf("%d keys recorded, want 16", got)
	}
}

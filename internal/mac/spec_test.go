package mac_test

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/mac"
)

// TestAliasesAreTheirCanonicalSpecs pins every legacy arm name to its
// family spec: each spelling resolves to the very Arm the alias names,
// with the label and seed salt the goldens were recorded under.
func TestAliasesAreTheirCanonicalSpecs(t *testing.T) {
	for _, tc := range []struct {
		alias     string
		spellings []string
		label     string
		salt      uint64
	}{
		{"csma", []string{"csma"}, "CS, acks", 0},
		{"csma-noack", []string{"csma:noack"}, "CS, no acks", 1},
		{"csma-nocs", []string{"csma:nocs"}, "CS off, acks", 2},
		{"csma-nocs-noack", []string{"csma:nocs:noack", "csma:noack:nocs"}, "CS off, no acks", 3},
		{"cmap", []string{"cmap:win=8", "cmap:vpkt=32:win=8", "cmap:win=08"}, "CMAP", 4},
		{"cmap1", []string{"cmap:win=1", "cmap:vpkt=32:win=1", "cmap:win=+1"}, "CMAP, win=1", 5},
		{"rtscts", []string{"csma:rts"}, "RTS/CTS", 6},
	} {
		want := mac.MustLookup(tc.alias)
		if want.Name() != tc.alias || want.Label() != tc.label || want.SeedSalt() != tc.salt {
			t.Errorf("%s = (%q, %q, %d), want (%q, %q, %d)", tc.alias,
				want.Name(), want.Label(), want.SeedSalt(), tc.alias, tc.label, tc.salt)
		}
		for _, s := range tc.spellings {
			if got := mac.MustLookup(s); got != want {
				t.Errorf("%s resolves to %s (salt %d), want the %s arm itself", s, got.Name(), got.SeedSalt(), tc.alias)
			}
		}
	}
	if c := mac.MustLookup("cmap1").(interface{ Config() core.Config }).Config(); c.Nwindow != 1 || c.Nvpkt != 32 {
		t.Errorf("cmap1 runs Nwindow=%d Nvpkt=%d, want 1 and 32", c.Nwindow, c.Nvpkt)
	}
	if c := mac.MustLookup("rtscts").(interface{ Config() csma.Config }).Config(); !c.RTSCTS || !c.CarrierSense || !c.LinkACKs {
		t.Errorf("rtscts runs %+v, want RTS/CTS over carrier sense and ACKs", c)
	}
}

// TestSpecCanonicalForm: a spec that is no alias is named and labelled
// by its canonical form — keys in family order, defaults dropped — and
// every spelling of it is one Arm whose salt lies above the legacy and
// cs@ ranges.
func TestSpecCanonicalForm(t *testing.T) {
	for canon, spellings := range map[string][]string{
		"cmap:win=2:vpkt=16":     {"cmap:vpkt=16:win=2", "cmap:win=2:vpkt=016", "cmap:win=02:vpkt=16"},
		"cmap:pdq":               {"cmap:win=8:pdq", "cmap:pdq:vpkt=32"},
		"cmap:win=3:vpkt=65536":  {"cmap:vpkt=65536:win=3"},
		"csma:nocs:rts":          {"csma:rts:nocs"},
		"csma:nocs:noack:rts":    {"csma:rts:noack:nocs"},
		"cmap:win=262140:vpkt=1": {"cmap:vpkt=1:win=262140"},
	} {
		a := mac.MustLookup(canon)
		if a.Name() != canon || a.Label() != canon {
			t.Errorf("%s resolves as (%q, %q), want its own canonical name and label", canon, a.Name(), a.Label())
		}
		if a.SeedSalt() < 1<<32 || a.SeedSalt() >= 1<<33 {
			t.Errorf("%s salt %d outside [2^32, 2^33)", canon, a.SeedSalt())
		}
		for _, s := range spellings {
			if mac.MustLookup(s) != a {
				t.Errorf("%s is not the %s arm", s, canon)
			}
		}
	}
	if c := mac.MustLookup("cmap:vpkt=16:win=2").(interface{ Config() core.Config }).Config(); c.Nwindow != 2 || c.Nvpkt != 16 || c.PerDestQueues {
		t.Errorf("cmap:win=2:vpkt=16 runs %+v", c)
	}
}

// TestSpecErrors: every refused spec is a *mac.SpecError naming the
// offending key, and every integer is bounded by the field it lands in.
func TestSpecErrors(t *testing.T) {
	for spec, key := range map[string]string{
		"cmap:win=0":                    "win",
		"cmap:win=-1":                   "win",
		"cmap:win=abc":                  "win",
		"cmap:win=99999999999999999999": "win",
		"cmap:win":                      "win",
		"cmap:win=1:win=2":              "win",
		"cmap:vpkt=0":                   "vpkt",
		"cmap:vpkt=65537":               "vpkt",
		"cmap:vpkt=70000":               "vpkt",
		"cmap:pdq=1":                    "pdq",
		"cmap:win=262140:vpkt=2":        "win",
		"cmap:bogus":                    "bogus",
		"cmap:":                         "",
		"cmap::pdq":                     "",
		"csma:rts=1":                    "rts",
		"csma:nocs:nocs":                "nocs",
		"csma:win=2":                    "win",
	} {
		_, err := mac.Lookup(spec)
		var se *mac.SpecError
		if !errors.As(err, &se) || se.Key != key || se.Spec != spec {
			t.Errorf("Lookup(%q) = %v, want a *mac.SpecError on key %q", spec, err, key)
		} else if !strings.Contains(err.Error(), spec) {
			t.Errorf("error %q does not name the spec", err)
		}
	}
	for bytes, ok := range map[int]bool{-5: false, 0: false, 1: true, 1400: true, 65535: true, 65536: false, 70000: false} {
		err := mac.CheckPayload(bytes)
		var se *mac.SpecError
		if ok != (err == nil) || (err != nil && (!errors.As(err, &se) || se.Key != "payload")) {
			t.Errorf("CheckPayload(%d) = %v", bytes, err)
		}
	}
}

// TestNamesListsFamilyHints: the menu -arm list prints names the three
// families after the fixed names.
func TestNamesListsFamilyHints(t *testing.T) {
	names := strings.Join(mac.Names(), " ")
	for _, hint := range []string{"cmap:<win=N|vpkt=N|pdq>...", "csma:<nocs|noack|rts>...", "cs@<dBm>"} {
		if !strings.Contains(names, hint) {
			t.Errorf("Names() = %s, missing %s", names, hint)
		}
	}
}

// TestLookupSeenSpellingAllocatesNothing: figures resolve their arm on
// every trial, so a spelling already seen — fixed name, alias spelling
// or parsed spec — must cost no allocation.
func TestLookupSeenSpellingAllocatesNothing(t *testing.T) {
	spellings := []string{"cmap", "cmap:win=1", "csma:noack:nocs", "cmap:vpkt=16:win=2", "cs@-82"}
	for _, s := range spellings {
		mac.MustLookup(s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, s := range spellings {
			mac.MustLookup(s)
		}
	}); allocs != 0 {
		t.Fatalf("Lookup of seen spellings allocates %.1f objects, want 0", allocs)
	}
}

// TestLookupConcurrentSpellingsShareOneArm: trial workers resolve arms
// concurrently, and spellings of one spec first seen at the same time
// must still come back as one Arm.
func TestLookupConcurrentSpellingsShareOneArm(t *testing.T) {
	spellings := []string{"cmap:win=5:vpkt=8:pdq", "cmap:pdq:vpkt=8:win=5", "cmap:vpkt=8:pdq:win=5", "cmap:win=05:pdq:vpkt=8"}
	got := make([]mac.Arm, 4*len(spellings))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = mac.MustLookup(spellings[i%len(spellings)])
		}(i)
	}
	wg.Wait()
	for _, a := range got {
		if a != got[0] {
			t.Fatalf("concurrent lookups returned two arms for %s", got[0].Name())
		}
	}
}

// FuzzLookup: any arm spelling either errors — a *mac.SpecError for a
// cmap or csma spec — or resolves to an Arm whose name is canonical:
// looking the name up gives the identical Arm back. A fixed name keeps a
// pinned salt in 0–6, a parsed spec salts above every other range, and
// a cs@ member has a finite threshold (cs@NaN once ran as a 10 Mb/s arm
// labelled "CS @ NaN dBm" under the salt of uint64(int64(NaN))).
func FuzzLookup(f *testing.F) {
	for _, s := range []string{"csma", "cmap1", "rtscts", "cs@-82", "cs@NaN", "cs@-Inf", "cs@-1e400", "cs@-120", "cs@0", "cs@-0x1p6",
		"cmap:win=1", "cmap:vpkt=16:win=2", "cmap:win=8:pdq", "csma:noack:nocs", "csma:rts", "csma:rts:nocs",
		"cmap:win=-1", "cmap:vpkt=70000", "cmap:win", "cmap::", "csma:rts=1", "cmap:win=1:win=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := mac.Lookup(s)
		if err != nil {
			var se *mac.SpecError
			if (strings.HasPrefix(s, "cmap:") || strings.HasPrefix(s, "csma:")) && !errors.As(err, &se) {
				t.Fatalf("Lookup(%q) refused with an untyped error: %v", s, err)
			}
			return
		}
		if b, err := mac.Lookup(a.Name()); err != nil || b != a {
			t.Fatalf("Lookup(%q) gave %q, which does not round-trip to the same arm (%v)", s, a.Name(), err)
		}
		name, salt := a.Name(), a.SeedSalt()
		switch {
		case strings.HasPrefix(name, "cs@"):
			thr, err := strconv.ParseFloat(strings.TrimPrefix(name, "cs@"), 64)
			if err != nil || math.IsNaN(thr) || math.IsInf(thr, 0) {
				t.Fatalf("Lookup(%q) accepted %q, whose threshold is not a finite number", s, name)
			}
		case strings.Contains(name, ":"):
			if salt < 1<<32 {
				t.Fatalf("spec %q salts %d, inside the legacy or cs@ range", name, salt)
			}
		case salt > 6:
			t.Fatalf("fixed arm %q salts %d, outside the pinned 0–6", name, salt)
		}
	})
}

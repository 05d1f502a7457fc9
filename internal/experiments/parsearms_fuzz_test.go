package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mac"
)

// FuzzParseArms: any -arms string either errors or yields canonical
// arm names — each the Name of the arm it resolves to, so "cmap:win=1"
// comes back as cmap1 — and parsing that output again gives it back
// unchanged. What a single spelling may resolve to is internal/mac's
// FuzzLookup.
func FuzzParseArms(f *testing.F) {
	for _, s := range []string{"csma,cmap", "rtscts, csma ,cs@-82", "cs@NaN", "cs@-Inf", "cs@+Inf", "cs@-1e400",
		"cs@-120", "cs@0", "cs@-0", "cs@-0x1p6", "cs@", ",,", "cmap1,cs@-82.5",
		"cmap:win=1,csma:rts:nocs", "cmap:vpkt=16:win=2, cmap:win=8"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		arms, err := ParseArms(s)
		if err != nil {
			return
		}
		names := make([]string, len(arms))
		for i, a := range arms {
			if got := mac.MustLookup(string(a)).Name(); got != string(a) {
				t.Fatalf("ParseArms(%q) returned %q, whose arm is named %q", s, a, got)
			}
			names[i] = string(a)
		}
		if again, err := ParseArms(strings.Join(names, ",")); err != nil || !slices.Equal(again, arms) {
			t.Fatalf("ParseArms(%q) = %v does not re-parse to itself: %v, %v", s, arms, again, err)
		}
	})
}

package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mac"
)

// FuzzParseArms: any -arm/-arms string either errors or yields arms that
// all resolve through the registry, every cs@ member with a finite
// threshold — cs@NaN once ran as a 10 Mb/s arm labelled "CS @ NaN dBm"
// under the seed salt of uint64(int64(NaN)) — and parsing never panics.
func FuzzParseArms(f *testing.F) {
	for _, s := range []string{"csma,cmap", "rtscts, csma ,cs@-82", "cs@NaN", "cs@-Inf", "cs@+Inf", "cs@-1e400",
		"cs@-120", "cs@0", "cs@-0", "cs@-0x1p6", "cs@", ",,", "cmap1,cs@-82.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		arms, err := ParseArms(s)
		if err != nil {
			return
		}
		for _, a := range arms {
			if _, err := mac.Lookup(string(a)); err != nil {
				t.Fatalf("ParseArms(%q) accepted %q, which the registry refuses: %v", s, a, err)
			}
			if spec, ok := strings.CutPrefix(string(a), "cs@"); ok {
				if thr, err := strconv.ParseFloat(spec, 64); err != nil || math.IsNaN(thr) || math.IsInf(thr, 0) {
					t.Fatalf("ParseArms(%q) accepted %q, whose threshold is not a finite number", s, a)
				}
			}
		}
	})
}

package main

import (
	"math"
	"strconv"
	"testing"
)

func TestParseReadsLastLineAndDigests(t *testing.T) {
	out := []byte("wall_s s lower 1.5\ndigest[0]: 00aa\ndigest[1]: 00bb\nfailed_frac: 0/3\n" +
		`{"attempted":3,"correct":true,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}` + "\n")
	o, err := parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Metrics["wall_s"].Value != 1.5 || len(o.digests) != 2 || o.digests[1] != "digest[1]: 00bb" {
		t.Fatalf("parsed %+v", o)
	}
	if _, err := parse([]byte("no outcome here\n")); err == nil {
		t.Fatal("an output without an outcome line parsed")
	}
}

func TestSummarizeMediansAndDirection(t *testing.T) {
	rs := [][2]outcome{pairOf(10, 8), pairOf(10, 9), pairOf(10, 12)}
	lower := summarize(rs, metric{Name: "m", Better: "lower"})
	if lower.old != [3]float64{10, 10, 10} || lower.new != 9 || lower.ratio != 0.9 || lower.better != 2 {
		t.Fatalf("lower-is-better summary %+v", lower)
	}
	if higher := summarize(rs, metric{Name: "m", Better: "higher"}); higher.better != 1 {
		t.Fatalf("higher-is-better summary %+v", higher)
	}
	if lower.breaks || lower.place != "below p25" {
		t.Fatalf("lower-is-better summary %+v: want no broken bound, new median below p25", lower)
	}
	if got := quartiles([]float64{5, 1, 4, 2, 3}); got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1..5 = %v, want [2 3 4]", got)
	}
	if got := quartiles([]float64{4, 1, 3, 2}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
}

// TestSummarizeMarksBrokenBounds summarizes a fixed set of rounds under
// each direction and bound: a median ratio of 1.2 breaks a 15 % bound
// on a lower-is-better metric and not a 25 % one, and breaks no bound
// on a higher-is-better metric, whose bound it would break at 0.8.
func TestSummarizeMarksBrokenBounds(t *testing.T) {
	// Parent 9, 10, 10, 10, 11: quartiles 10, 10, 10.
	rises := [][2]outcome{pairOf(10, 12), pairOf(10, 12), pairOf(9, 11.7), pairOf(11, 12.1), pairOf(10, 9)}
	falls := [][2]outcome{pairOf(10, 8), pairOf(10, 8), pairOf(9, 7.2), pairOf(11, 10), pairOf(10, 10)}
	for _, tc := range []struct {
		name   string
		rounds [][2]outcome
		m      metric
		ratio  float64
		breaks bool
		place  string
	}{
		{"lower, rises past 15 %", rises, metric{Name: "m", Better: "lower", Bound: 0.15}, 1.2, true, "above p75"},
		{"lower, rises within 25 %", rises, metric{Name: "m", Better: "lower", Bound: 0.25}, 1.2, false, "above p75"},
		{"higher, rises", rises, metric{Name: "m", Better: "higher", Bound: 0.1}, 1.2, false, "above p75"},
		{"higher, falls past 10 %", falls, metric{Name: "m", Better: "higher", Bound: 0.1}, 0.8, true, "below p25"},
		{"lower, falls", falls, metric{Name: "m", Better: "lower", Bound: 0.1}, 0.8, false, "below p25"},
		{"higher, flat", [][2]outcome{pairOf(9, 10), pairOf(10, 10), pairOf(11, 10)}, metric{Name: "m", Better: "higher", Bound: 0.1}, 1, false, "inside p25-p75"},
	} {
		s := summarize(tc.rounds, tc.m)
		if math.Abs(s.ratio-tc.ratio) > 1e-12 || s.breaks != tc.breaks || s.place != tc.place {
			t.Errorf("%s: ratio %v, breaks %v, new median %s; want %v, %v, %s", tc.name, s.ratio, s.breaks, s.place, tc.ratio, tc.breaks, tc.place)
		}
	}
}

// pairOf is one round whose two sides report metric m as old and new.
func pairOf(old, new float64) [2]outcome {
	var p [2]outcome
	for k, v := range []float64{old, new} {
		p[k], _ = parse([]byte(`{"metrics":{"m":{"value":` + ftoa(v) + `}}}`))
	}
	return p
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

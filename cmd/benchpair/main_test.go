package main

import (
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
	round := func(old, new float64) [2]outcome {
		var p [2]outcome
		for k, v := range []float64{old, new} {
			p[k], _ = parse([]byte(`{"metrics":{"m":{"value":` + ftoa(v) + `}}}`))
		}
		return p
	}
	rs := [][2]outcome{round(10, 8), round(10, 9), round(10, 12)}
	lower := summarize(rs, metric{Name: "m", Better: "lower"})
	if lower.old != [3]float64{10, 10, 10} || lower.new != 9 || lower.ratio != 0.9 || lower.better != 2 {
		t.Fatalf("lower-is-better summary %+v", lower)
	}
	if higher := summarize(rs, metric{Name: "m", Better: "higher"}); higher.better != 1 {
		t.Fatalf("higher-is-better summary %+v", higher)
	}
	if got := quartiles([]float64{5, 1, 4, 2, 3}); got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1..5 = %v, want [2 3 4]", got)
	}
	if got := quartiles([]float64{4, 1, 3, 2}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

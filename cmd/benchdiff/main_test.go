package main

import (
	"os"
	"testing"
)

// autoPair's contract: with fewer than two BENCH_*.json files the gate
// reports nothing-to-compare (ok=false) instead of failing, and with
// two or more it yields a deterministic (old, new) ordering. The test
// directories are not git repositories, so every file counts as
// uncommitted (newest) and the tie breaks on path name — the ordering
// the doc comment promises.

func writeBench(t *testing.T, name string) {
	t.Helper()
	if err := os.WriteFile(name, []byte(`{"commit":"x","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAutoPairFewerThanTwoFiles(t *testing.T) {
	t.Chdir(t.TempDir())
	if _, _, ok := autoPair(); ok {
		t.Fatal("empty dir: autoPair reported a pair")
	}
	writeBench(t, "BENCH_aaaa.json")
	if _, _, ok := autoPair(); ok {
		t.Fatal("one file: autoPair reported a pair")
	}
}

func TestAutoPairOrdering(t *testing.T) {
	t.Chdir(t.TempDir())
	writeBench(t, "BENCH_cccc.json")
	writeBench(t, "BENCH_aaaa.json")
	writeBench(t, "BENCH_bbbb.json")
	oldPath, newPath, ok := autoPair()
	if !ok {
		t.Fatal("three files: autoPair found nothing")
	}
	// All uncommitted → newest-last by path; the two newest are b and c.
	if oldPath != "BENCH_bbbb.json" || newPath != "BENCH_cccc.json" {
		t.Fatalf("pair = (%s, %s), want (BENCH_bbbb.json, BENCH_cccc.json)", oldPath, newPath)
	}
}

func TestGuardedByPrefixList(t *testing.T) {
	cases := []struct {
		name, guard string
		want        bool
	}{
		{"SaturatedSteadyState/n=200", defaultGuard, true},
		{"IncrementalUpdate/n=1000", defaultGuard, true},
		{"EpochUpdate/n=1000", defaultGuard, true},
		{"DeliveryRebuild/n=1000", defaultGuard, false},
		{"EpochUpdate/n=50", "SaturatedSteadyState,IncrementalUpdate", false},
		{"MediumConstruct/n=50", "SaturatedSteadyState", false},
		{"IncrementalUpdate/n=50", " SaturatedSteadyState , IncrementalUpdate ", true},
		{"anything", ",,", false},
	}
	for _, c := range cases {
		if got := guardedBy(c.name, c.guard); got != c.want {
			t.Errorf("guardedBy(%q, %q) = %v, want %v", c.name, c.guard, got, c.want)
		}
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/BENCH_bad.json"
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("load of invalid JSON succeeded")
	}
	if _, err := load(dir + "/missing.json"); err == nil {
		t.Fatal("load of missing file succeeded")
	}
}

// TestRegressedNeedsSeparatedQuartiles: a guarded row fails on the
// threshold alone only while a file without quartiles is involved;
// once both carry them, the spreads must not overlap either.
func TestRegressedNeedsSeparatedQuartiles(t *testing.T) {
	row := func(median, q1, q3 float64) benchRecord {
		return benchRecord{Name: "SaturatedSteadyState/n=1000", NsPerOp: median, NsPerOpQ1: q1, NsPerOpQ3: q3}
	}
	cases := []struct {
		name     string
		was, now benchRecord
		want     bool
	}{
		{"inside the threshold", row(100, 95, 105), row(119, 117, 121), false},
		{"slower and spreads apart", row(100, 95, 105), row(130, 125, 140), true},
		{"slower but spreads overlap", row(100, 90, 128), row(130, 120, 150), false},
		{"new q1 exactly on old q3", row(100, 95, 110), row(130, 110, 140), false},
		{"faster", row(100, 95, 105), row(60, 55, 65), false},
		{"old file has no quartiles: threshold alone", row(100, 0, 0), row(130, 90, 150), true},
		{"neither file has quartiles", row(100, 0, 0), row(121, 0, 0), true},
		{"no quartiles, inside the threshold", row(100, 0, 0), row(120, 0, 0), false},
	}
	for _, c := range cases {
		if got := regressed(c.was, c.now, 0.20); got != c.want {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.want)
		}
	}
}

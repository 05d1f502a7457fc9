package main

import (
	"io"
	"os"
	"slices"
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

// TestDiffGatesOnlyOnTheSameHost: a regression past the rule fails the
// gate only when the whole host stamp matches — CPU model, num_cpu and
// GOMAXPROCS — and the stamp round-trips through the file format.
func TestDiffGatesOnlyOnTheSameHost(t *testing.T) {
	xeon := hostStamp{CPU: "Xeon @ 2.10GHz", NumCPU: 2, GOMAXPROCS: 2}
	legacy := hostStamp{NumCPU: 2} // written before cpu/gomaxprocs were recorded
	file := func(h hostStamp, ns float64) benchFile {
		return benchFile{hostStamp: h, Benchmarks: []benchRecord{{Name: "SaturatedSteadyState/n=1000", NsPerOp: ns}}}
	}
	cases := []struct {
		name      string
		old, new  hostStamp
		wantFails bool
	}{
		{"same stamp", xeon, xeon, true},
		{"other cpu model, same count", xeon, hostStamp{CPU: "EPYC", NumCPU: 2, GOMAXPROCS: 2}, false},
		{"other num_cpu", xeon, hostStamp{CPU: xeon.CPU, NumCPU: 8, GOMAXPROCS: 2}, false},
		{"other gomaxprocs", xeon, hostStamp{CPU: xeon.CPU, NumCPU: 2, GOMAXPROCS: 1}, false},
		{"legacy file against a stamped one", legacy, xeon, false},
		{"two legacy files", legacy, legacy, true},
	}
	for _, c := range cases {
		v := diff(io.Discard, file(c.old, 100), file(c.new, 200), defaultGuard, 0.20)
		if len(v.regressions) != 1 {
			t.Errorf("%s: %d regressions reported, want 1 on any host", c.name, len(v.regressions))
		}
		if v.fails() != c.wantFails {
			t.Errorf("%s: fails = %v, want %v", c.name, v.fails(), c.wantFails)
		}
	}

	path := t.TempDir() + "/BENCH_x.json"
	if err := os.WriteFile(path, []byte(`{"commit":"x","cpu":"Xeon @ 2.10GHz","num_cpu":2,"gomaxprocs":2,"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := load(path)
	if err != nil || f.hostStamp != xeon {
		t.Fatalf("load: stamp %v err %v, want %v", f.hostStamp, err, xeon)
	}
}

// TestDiffFailsOnMissingGuardedFamily: a guarded family with rows in
// the older file and none in the newer fails the gate, host or no host;
// a dropped row of a family that is still there, a dropped unguarded
// family and a family neither file has do not.
func TestDiffFailsOnMissingGuardedFamily(t *testing.T) {
	rows := func(names ...string) []benchRecord {
		var out []benchRecord
		for _, n := range names {
			out = append(out, benchRecord{Name: n, NsPerOp: 100})
		}
		return out
	}
	old := rows("SaturatedSteadyState/n=50", "SaturatedSteadyState/n=1000", "EpochUpdate/n=50", "MediumConstruct/n=50")
	cases := []struct {
		name        string
		new         []benchRecord
		wantMissing []string
	}{
		{"nothing dropped", old, nil},
		{"one row of a family dropped", rows("SaturatedSteadyState/n=1000", "EpochUpdate/n=50", "MediumConstruct/n=50"), nil},
		{"unguarded family dropped", rows("SaturatedSteadyState/n=50", "EpochUpdate/n=50"), nil},
		{"guarded family dropped", rows("SaturatedSteadyState/n=50", "MediumConstruct/n=50"), []string{"EpochUpdate"}},
		{"two guarded families dropped", rows("MediumConstruct/n=50"), []string{"SaturatedSteadyState", "EpochUpdate"}},
	}
	for _, otherHost := range []bool{false, true} {
		for _, c := range cases {
			newF := benchFile{Benchmarks: c.new}
			if otherHost {
				newF.NumCPU = 64
			}
			v := diff(io.Discard, benchFile{Benchmarks: old}, newF, defaultGuard, 0.20)
			if !slices.Equal(v.missing, c.wantMissing) {
				t.Errorf("%s (other host %v): missing = %v, want %v", c.name, otherHost, v.missing, c.wantMissing)
			}
			if v.fails() != (len(c.wantMissing) > 0) {
				t.Errorf("%s (other host %v): fails = %v", c.name, otherHost, v.fails())
			}
		}
	}
}

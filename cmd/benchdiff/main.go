// Command benchdiff compares two BENCH_<sha>.json trajectory files
// (written by cmapbench -benchjson) and fails on ns/op regressions in
// the guarded benchmark families, so a perf-sensitive change cannot
// land a silently slower steady state.
//
// Usage:
//
//	benchdiff [-threshold 0.20] [-guard SaturatedSteadyState,IncrementalUpdate,EpochUpdate] old.json new.json
//	benchdiff -auto
//
// -auto discovers the BENCH_*.json files in the current directory and
// compares the two most recently committed ones (ordered by the commit
// date each file was added; an uncommitted file counts as newest). With
// fewer than two files -auto passes trivially, so the gate arms itself
// the first time a second trajectory file lands.
//
// Every benchmark present in both files is reported with its ns/op
// delta. Only benchmarks whose name starts with one of the
// comma-separated -guard prefixes can fail the run, and only when
// ns/op grew by more than -threshold (default 20%) and, where both rows
// carry quartiles over repeated runs (ns_op_q1/ns_op_q3), the new lower
// quartile also sits above the old upper one — a host that drifted
// between two recordings moves the medians, not the whole spread past
// the other's. Rows from files older than the quartiles are judged on
// the threshold alone. Two files recorded on hosts with different
// num_cpu are reported the same way but never fail: a ns/op delta
// across machines measures the machines, and the gate re-arms with the
// next file from the same host. Setting
// BENCHDIFF_SKIP=1 reports the same table but always exits 0 — the
// escape hatch for a deliberate, explained regression; the variable
// name shows up in CI logs, which is the point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchRecord mirrors one benchmark row of cmapbench's BENCH schema.
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_op"`
	// Quartiles of ns/op over repeated runs; zero in files written
	// before cmapbench recorded them.
	NsPerOpQ1 float64 `json:"ns_op_q1"`
	NsPerOpQ3 float64 `json:"ns_op_q3"`
}

// benchFile mirrors the parts of the BENCH_<sha>.json schema the diff
// needs; unknown fields pass through unharmed.
type benchFile struct {
	Commit     string        `json:"commit"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

func load(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// addedUnix returns the unix time of the commit that added path, or 0
// when git does not know the file (never committed → newest).
func addedUnix(path string) int64 {
	out, err := exec.Command("git", "log", "--diff-filter=A", "--format=%ct", "-1", "--", path).Output()
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(out))
	if s == "" {
		return 0
	}
	t, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return t
}

// autoPair picks (old, new) from the BENCH_*.json files present,
// ordered by when each entered git history; uncommitted files sort
// newest. The second result is false when fewer than two files exist.
func autoPair() (string, string, bool) {
	files, _ := filepath.Glob("BENCH_*.json")
	if len(files) < 2 {
		return "", "", false
	}
	type entry struct {
		path  string
		added int64
	}
	entries := make([]entry, 0, len(files))
	for _, f := range files {
		entries = append(entries, entry{f, addedUnix(f)})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].added, entries[j].added
		if a == 0 {
			a = 1<<63 - 1
		}
		if b == 0 {
			b = 1<<63 - 1
		}
		if a != b {
			return a < b
		}
		return entries[i].path < entries[j].path
	})
	return entries[len(entries)-2].path, entries[len(entries)-1].path, true
}

// guardedBy reports whether name starts with any of the comma-separated
// prefixes in guard (empty prefixes are ignored).
func guardedBy(name, guard string) bool {
	for _, g := range strings.Split(guard, ",") {
		if g = strings.TrimSpace(g); g != "" && strings.HasPrefix(name, g) {
			return true
		}
	}
	return false
}

// regressed is the failure rule for one guarded benchmark: the median
// grew by more than threshold and, when both rows carry quartiles, the
// spreads do not overlap either (new q1 above old q3).
func regressed(was, now benchRecord, threshold float64) bool {
	if (now.NsPerOp-was.NsPerOp)/was.NsPerOp <= threshold {
		return false
	}
	if was.NsPerOpQ3 > 0 && now.NsPerOpQ1 > 0 {
		return now.NsPerOpQ1 > was.NsPerOpQ3
	}
	return true
}

// defaultGuard lists the benchmark families whose regressions fail the
// gate: the saturated transmit path and the two mobility patch costs
// (one move, one whole epoch).
const defaultGuard = "SaturatedSteadyState,IncrementalUpdate,EpochUpdate"

func main() {
	threshold := flag.Float64("threshold", 0.20, "fractional ns/op growth in a guarded benchmark that fails the diff")
	guard := flag.String("guard", defaultGuard,
		"comma-separated benchmark name prefixes the failure gate applies to")
	auto := flag.Bool("auto", false, "compare the two most recently committed BENCH_*.json in the current directory")
	flag.Parse()

	var oldPath, newPath string
	switch {
	case *auto:
		var ok bool
		oldPath, newPath, ok = autoPair()
		if !ok {
			fmt.Println("benchdiff: fewer than two BENCH_*.json files — nothing to compare")
			return
		}
	case flag.NArg() == 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold F] [-guard PREFIX] old.json new.json | benchdiff -auto")
		os.Exit(2)
	}

	oldF, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newF, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("benchdiff: %s (%s) → %s (%s)\n", oldPath, oldF.Commit, newPath, newF.Commit)
	sameHost := oldF.NumCPU == newF.NumCPU
	if !sameHost {
		fmt.Printf("note: num_cpu differs (%d → %d); wall-clock deltas are not apples to apples and do not gate\n",
			oldF.NumCPU, newF.NumCPU)
	}

	oldBy := map[string]benchRecord{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	var regressions []string
	for _, b := range newF.Benchmarks {
		was, ok := oldBy[b.Name]
		if !ok {
			fmt.Printf("  %-44s %12.0f ns/op   (new)\n", b.Name, b.NsPerOp)
			continue
		}
		delete(oldBy, b.Name)
		delta := (b.NsPerOp - was.NsPerOp) / was.NsPerOp
		marker := ""
		if guardedBy(b.Name, *guard) && regressed(was, b, *threshold) {
			marker = "  ← REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%)", b.Name, was.NsPerOp, b.NsPerOp, 100*delta))
		}
		fmt.Printf("  %-44s %12.0f ns/op   %+7.1f%%%s\n", b.Name, b.NsPerOp, 100*delta, marker)
	}
	for name := range oldBy {
		fmt.Printf("  %-44s %12s            (dropped)\n", name, "—")
	}

	if len(regressions) == 0 {
		fmt.Printf("guard %q: no regression above %.0f%%\n", *guard, 100**threshold)
		return
	}
	fmt.Printf("\n%d guarded benchmark(s) regressed more than %.0f%% ns/op:\n", len(regressions), 100**threshold)
	for _, r := range regressions {
		fmt.Println("  " + r)
	}
	if !sameHost {
		fmt.Println("different hosts — reported, not gated")
		return
	}
	if os.Getenv("BENCHDIFF_SKIP") != "" {
		fmt.Println("BENCHDIFF_SKIP set — accepting the regression (leave a justification in the PR)")
		return
	}
	fmt.Println("set BENCHDIFF_SKIP=1 to accept a deliberate regression")
	os.Exit(1)
}

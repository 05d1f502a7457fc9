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
// the threshold alone. Two files whose host stamps differ (CPU model,
// num_cpu or GOMAXPROCS; a file from before the full stamp matches
// only another such file) are reported the same way but their ns/op
// deltas never fail: a delta across machines measures the machines, and
// the gate re-arms with the next file from the same host. A guarded
// family that has rows in the older file and none in the newer fails on
// any host — a gate cannot be passed by dropping what it measures.
// Setting BENCHDIFF_SKIP=1 reports the same table but always exits 0 — the
// escape hatch for a deliberate, explained regression; the variable
// name shows up in CI logs, which is the point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
	Commit string `json:"commit"`
	hostStamp
	Benchmarks []benchRecord `json:"benchmarks"`
}

// hostStamp says where a file was recorded. ns/op deltas gate only
// between equal stamps. Files written before cmapbench recorded the CPU
// model and GOMAXPROCS leave them zero, so such a file equals only
// another one like it.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (h hostStamp) String() string {
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d", h.CPU, h.NumCPU, h.GOMAXPROCS)
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
	for _, g := range guardPrefixes(guard) {
		if strings.HasPrefix(name, g) {
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

// guardPrefixes splits the -guard list, dropping empty entries.
func guardPrefixes(guard string) []string {
	var out []string
	for _, g := range strings.Split(guard, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// verdict is what one comparison found for the gate to act on.
type verdict struct {
	sameHost    bool
	regressions []string // guarded rows past the failure rule
	missing     []string // guarded families the newer file dropped
}

// fails reports whether the gate should reject: regressions count only
// between files from one host, a dropped family counts anywhere.
func (v verdict) fails() bool {
	return len(v.missing) > 0 || (v.sameHost && len(v.regressions) > 0)
}

// diff writes the row-by-row table of newF against oldF to w and
// returns what the gate should act on.
func diff(w io.Writer, oldF, newF benchFile, guard string, threshold float64) verdict {
	v := verdict{sameHost: oldF.hostStamp == newF.hostStamp}
	if !v.sameHost {
		fmt.Fprintf(w, "note: host differs (%v → %v); wall-clock deltas are not apples to apples and do not gate\n",
			oldF.hostStamp, newF.hostStamp)
	}
	oldBy := map[string]benchRecord{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	for _, b := range newF.Benchmarks {
		was, ok := oldBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "  %-44s %12.0f ns/op   (new)\n", b.Name, b.NsPerOp)
			continue
		}
		delete(oldBy, b.Name)
		delta := (b.NsPerOp - was.NsPerOp) / was.NsPerOp
		marker := ""
		if guardedBy(b.Name, guard) && regressed(was, b, threshold) {
			marker = "  ← REGRESSION"
			v.regressions = append(v.regressions,
				fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%)", b.Name, was.NsPerOp, b.NsPerOp, 100*delta))
		}
		fmt.Fprintf(w, "  %-44s %12.0f ns/op   %+7.1f%%%s\n", b.Name, b.NsPerOp, 100*delta, marker)
	}
	dropped := make([]string, 0, len(oldBy))
	for name := range oldBy {
		dropped = append(dropped, name)
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Fprintf(w, "  %-44s %12s            (dropped)\n", name, "—")
	}
	has := func(f benchFile, prefix string) bool {
		for _, b := range f.Benchmarks {
			if strings.HasPrefix(b.Name, prefix) {
				return true
			}
		}
		return false
	}
	for _, g := range guardPrefixes(guard) {
		if has(oldF, g) && !has(newF, g) {
			v.missing = append(v.missing, g)
		}
	}
	return v
}

// defaultGuard lists the benchmark families whose regressions fail the
// gate: the saturated transmit path and the two mobility batch costs
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
	v := diff(os.Stdout, oldF, newF, *guard, *threshold)

	if len(v.regressions) == 0 {
		fmt.Printf("guard %q: no regression above %.0f%%\n", *guard, 100**threshold)
	} else {
		fmt.Printf("\n%d guarded benchmark(s) regressed more than %.0f%% ns/op:\n", len(v.regressions), 100**threshold)
		for _, r := range v.regressions {
			fmt.Println("  " + r)
		}
		if !v.sameHost {
			fmt.Println("different hosts — reported, not gated")
		}
	}
	for _, g := range v.missing {
		fmt.Printf("guarded family %q has rows in %s and none in %s\n", g, oldPath, newPath)
	}
	if !v.fails() {
		return
	}
	if os.Getenv("BENCHDIFF_SKIP") != "" {
		fmt.Println("BENCHDIFF_SKIP set — accepting the regression (leave a justification in the PR)")
		return
	}
	fmt.Println("set BENCHDIFF_SKIP=1 to accept a deliberate regression")
	os.Exit(1)
}

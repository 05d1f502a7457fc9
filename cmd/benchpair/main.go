// Command benchpair runs the repository benchmark on a parent revision
// and on the working tree in alternating pairs, so a speed claim rests
// on rounds measured side by side on one host rather than on two runs
// taken minutes apart.
//
// Usage:
//
//	benchpair -parent <rev> -workload scale_sparse -rounds 5
//	make bench-pair PARENT=<rev> WORKLOAD=scale_sparse ROUNDS=5
//
// The parent's committed files are exported (git archive) into
// .bench_pair/<short-sha>/ at the root of the checkout, once; later
// pairs against the same revision reuse the tree and its build cache.
// Round i runs `bash bench/run.sh --workload W --seed i` in both trees,
// the parent first in odd rounds and the working tree first in even
// ones, so drift on the host falls on both sides alike. Each round
// prints its end-to-end metrics side by side, read from the last line
// of bench/run.sh, and whether the two runs' result digests agree;
// the summary gives each metric's medians, the median of the per-round
// ratios (working tree / parent) and in how many rounds the working
// tree was better. It marks a metric whose median ratio is worse than
// 1 ± the bound BENCHMARK.json gives it, in the direction it is better
// in, and says where the new median falls against the parent's p25–p75.
// The exit status is 1 when a run fails, reports a failed check or its
// digests differ from the other side's.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// outcome is what one bench/run.sh run reports: its last line, and the
// digest lines that pin its results.
type outcome struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	digests []string
}

// metric is one end-to-end metric as BENCHMARK.json declares it: the
// direction it is better in, and the fraction by which its median ratio
// may be worse before the change is refused.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	fl := flag.NewFlagSet("benchpair", flag.ExitOnError)
	parent := fl.String("parent", "", "git revision to compare the working tree against")
	workload := fl.String("workload", "scale_sparse", "BENCHMARK.json workload to run")
	rounds := fl.Int("rounds", 5, "number of paired rounds; round i runs seed i")
	fl.Parse(os.Args[1:])
	if *parent == "" || *rounds < 1 || fl.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpair -parent <rev> [-workload W] [-rounds N]")
		os.Exit(2)
	}
	if err := run(*parent, *workload, *rounds, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(parent, workload string, rounds int, w io.Writer) error {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sha, err := git(root, "rev-parse", "--short", parent+"^{commit}")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	old := filepath.Join(root, ".bench_pair", sha)
	if _, err := os.Stat(old); err != nil {
		if err := os.MkdirAll(old, 0o755); err != nil {
			return err
		}
		tarball := old + ".tar"
		_, err := git(root, "archive", "-o", tarball, sha)
		if err == nil {
			untar := exec.Command("tar", "-xf", tarball, "-C", old)
			untar.Stderr = os.Stderr
			err = untar.Run()
		}
		os.Remove(tarball)
		if err != nil {
			os.RemoveAll(old)
			return fmt.Errorf("exporting %s: %w", sha, err)
		}
	}
	trees := [2]string{old, root}
	names := [2]string{"parent " + sha, "working tree"}
	var results [][2]outcome
	bad := false
	for i := 1; i <= rounds; i++ {
		var pair [2]outcome
		for k := range 2 {
			side := (i + 1 + k) % 2 // odd rounds run the parent first
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", i, rounds, names[side])
			if pair[side], err = bench(trees[side], workload, i); err != nil {
				return fmt.Errorf("round %d, %s: %w", i, names[side], err)
			}
		}
		same := slices.Equal(pair[0].digests, pair[1].digests)
		bad = bad || !same || !pair[0].Correct || !pair[1].Correct
		fmt.Fprintf(w, "round %d (seed %d): failed %d / %d, digests equal: %v\n", i, i, pair[0].Failed, pair[1].Failed, same)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g\n", m.Name, pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value)
		}
		results = append(results, pair)
	}
	fmt.Fprintf(w, "\n%s, %d rounds: %s vs working tree\n", workload, rounds, sha)
	fmt.Fprintf(w, "  %-18s %14s %14s %14s %14s %10s %8s %6s  %s\n", "metric", "parent p25", "parent p50", "parent p75", "new p50", "ratio p50", "better", "bound", "new p50")
	for _, m := range spec.EndToEnd {
		s := summarize(results, m)
		mark := ""
		if s.breaks {
			mark = "  BREAKS BOUND"
		}
		fmt.Fprintf(w, "  %-18s %14.6g %14.6g %14.6g %14.6g %10.4f %5d/%d %5.0f%%  %s%s\n",
			m.Name, s.old[0], s.old[1], s.old[2], s.new, s.ratio, s.better, rounds, 100*m.Bound, s.place, mark)
	}
	if bad {
		return fmt.Errorf("a run failed a check or the two sides' digests differ")
	}
	return nil
}

// summary is one metric over every round: the parent's quartiles (the
// spread a gain must clear), the new side's median, the median of the
// per-round ratios new/old, and the rounds in which the new side was
// better; whether that median ratio is worse than the metric's bound
// allows, and where the new median falls against the parent's
// quartiles ("below p25", "inside p25-p75" or "above p75").
type summary struct {
	old        [3]float64
	new, ratio float64
	better     int
	breaks     bool
	place      string
}

func summarize(results [][2]outcome, m metric) summary {
	var olds, news, ratios []float64
	better := 0
	for _, pair := range results {
		o, n := pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value
		olds, news, ratios = append(olds, o), append(news, n), append(ratios, n/o)
		if (m.Better == "lower" && n < o) || (m.Better == "higher" && n > o) {
			better++
		}
	}
	s := summary{old: quartiles(olds), new: quartiles(news)[1], ratio: quartiles(ratios)[1], better: better}
	s.breaks = (m.Better == "lower" && s.ratio > 1+m.Bound) || (m.Better == "higher" && s.ratio < 1-m.Bound)
	switch {
	case s.new < s.old[0]:
		s.place = "below p25"
	case s.new > s.old[2]:
		s.place = "above p75"
	default:
		s.place = "inside p25-p75"
	}
	return s
}

// quartiles returns the 25th, 50th and 75th percentiles of v,
// interpolated between the nearest ranks.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	var q [3]float64
	for k := range q {
		pos := float64(k+1) / 4 * float64(len(s)-1)
		i := int(pos)
		q[k] = s[i]
		if i+1 < len(s) {
			q[k] += (pos - float64(i)) * (s[i+1] - s[i])
		}
	}
	return q
}

// bench runs the benchmark in tree and parses what it printed.
func bench(tree, workload string, seed int) (outcome, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed))
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return outcome{}, err
	}
	return parse(out)
}

// parse reads one run's standard output: digest lines anywhere, the
// JSON outcome on the last line.
func parse(out []byte) (outcome, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return outcome{}, fmt.Errorf("last line is not the outcome: %w", err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "digest[") {
			o.digests = append(o.digests, l)
		}
	}
	return o, nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return string(bytes.TrimSpace(out)), nil
}

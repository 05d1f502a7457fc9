package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
)

// The -arms flag is the registry seam of the figure suite: a typo must
// surface as a CLI error that lists the registered names, never as a
// panic inside a half-finished figure.
func TestResolveArmsUnknown(t *testing.T) {
	_, err := experiments.ParseArms("csma,bogus")
	if err == nil {
		t.Fatal("ParseArms accepted an unregistered arm")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the bad arm", err)
	}
	if !strings.Contains(err.Error(), "csma") {
		t.Errorf("error %q does not list the registered arms", err)
	}
}

func TestResolveArmsEmpty(t *testing.T) {
	if _, err := experiments.ParseArms(" , "); err == nil {
		t.Fatal("ParseArms accepted a list with no arms")
	}
}

func TestResolveArmsKeepsOrder(t *testing.T) {
	arms, err := experiments.ParseArms("rtscts, csma ,cs@-82,cmap:win=1,cmap:vpkt=16:win=2")
	if err != nil {
		t.Fatalf("ParseArms: %v", err)
	}
	want := []experiments.Protocol{"rtscts", "csma", "cs@-82", experiments.CMAPWin1, "cmap:win=2:vpkt=16"}
	if len(arms) != len(want) {
		t.Fatalf("ParseArms returned %v, want %v", arms, want)
	}
	for i := range want {
		if arms[i] != want[i] {
			t.Errorf("arm %d = %q, want %q", i, arms[i], want[i])
		}
	}
}

// cmapbench runs the command in-process and returns exit code, stdout
// and stderr. A panic fails the calling test by itself.
func cmapbench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// timing matches the wall-clock line that closes a simulated section —
// the only non-deterministic bytes the suite prints.
var timing = regexp.MustCompile(`(?m)^\[\d+\.\ds\]\n`)

// TestRunReports drives the one CLI path: -only picks rows of the
// section table, and Figure 16 brings the two figures it is derived
// from along.
func TestRunReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stdout
	}{
		{"arms list", []string{"-arms", "list"}, []string{"cmap\n", "rtscts\n", "cmap:<win=N|vpkt=N|pdq>...\n", "csma:<nocs|noack|rts>...\n", "cs@<dBm>\n"}},
		{"window sweep", []string{"-scale", "quick", "-trials", "1", "-arms", "csma,cmap:win=1,cmap:win=2,cmap", "-only", "fig12"},
			[]string{"\nCMAP, win=1 ", "\ncmap:win=2 ", "CMAP win=1 / CS = "}},
		{"census and calibration", []string{"-scale", "quick", "-only", "census,calibration"},
			[]string{"seed=1 scale=quick", "== §5.1 testbed census ==\nconnected ordered pairs: ", "== §4.2 single-link calibration ==\nCMAP "}},
		{"fig16 alone", []string{"-scale", "quick", "-trials", "1", "-arms", "cmap", "-only", "fig16"},
			[]string{"== Figure 13 — senders in range ==", "== Figure 15 — hidden terminals ==", "== Figure 16 — header/trailer salvage ==\nFigure 16: "}},
		{"fig16 without cmap", []string{"-scale", "quick", "-trials", "1", "-arms", "csma", "-only", "fig16"},
			[]string{"(fig16 skipped: needs the cmap arm"}},
		{"unsaturated", []string{"-scale", "quick", "-trials", "1", "-arms", "cmap", "-traffic", "poisson", "-load", "2", "-only", "fig12"},
			[]string{"traffic: poisson arrivals at 2.00 Mb/s offered per flow\ncmapbench — ", "== Figure 12 — exposed terminals =="}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cmapbench(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout)
				}
			}
		})
	}
}

// TestRunUsageErrors: bad user input is an exit-2 message on stderr
// before anything runs — never a panic, a banner over an empty run, or
// a silently dropped flag.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown section", []string{"-only", "fig12,fig99"}, `-only "fig99": no such section (valid: census,calibration,fig12,`},
		{"verify without analytic", []string{"-analytic-verify"}, "-analytic-verify extends -analytic"},
		{"resume with analytic", []string{"-resume", "x", "-analytic"}, "-resume records the figure suite"},
		{"resume with benchjson", []string{"-resume", "x", "-benchjson"}, "-resume records the figure suite"},
		{"negative trials", []string{"-trials", "-3"}, "-trials -3"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel -2"},
		{"retired flag", []string{"-shards", "2"}, "not defined: -shards"},
		{"unknown scale", []string{"-scale", "bogus"}, `unknown scale "bogus"`},
		{"bad load", []string{"-load", "1,-2"}, `bad -load entry "-2"`},
		{"load past the clock tick", []string{"-only", "calibration", "-traffic", "poisson", "-load", "1e300"}, `bad -load entry "1e300": traffic: poisson spec at`},
		{"sweep load past the clock tick", []string{"-only", "loadsweep", "-load", "1,1e300"}, `bad -load entry "1e300": traffic: poisson spec at`},
		{"onoff load past the clock tick", []string{"-only", "loadsweep", "-traffic", "onoff", "-load", "1,8e6"}, `bad -load entry "8e6": traffic: onoff spec at`},
		{"vanishing load", []string{"-load", "1e-300"}, "outside [1, 2^56] ns"},
		{"bad mobility", []string{"-mobility", "teleport@3"}, "teleport"},
		{"NaN mobility speed", []string{"-mobility", "waypoint@NaN"}, `bad speed "NaN"`},
		{"bad traffic", []string{"-traffic", "pigeon"}, "pigeon"},
		{"unknown arm", []string{"-arms", "csma,bogus"}, "bogus"},
		{"NaN cs threshold", []string{"-arms", "csma,cs@NaN"}, `cs@ arm "cs@NaN": threshold must be in`},
		{"zero window", []string{"-arms", "csma,cmap:win=0"}, `mac: cmap:win=0: win: "0" is not an integer in [1, 262140]`},
		{"repeated arm", []string{"-arms", "csma,cmap:win=1,cmap1"}, `arm cmap1 given twice (the second time as "cmap1")`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cmapbench(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error still printed to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestRunFlushesProfileOnUsageError: every exit is a return, so the
// profile defers run and the file is a complete (gzip-framed) profile
// even when the run dies on its flags.
func TestRunFlushesProfileOnUsageError(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code, _, _ := cmapbench("-cpuprofile", prof, "-scale", "bogus"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is %d bytes and not gzip-framed", len(data))
	}
}

// TestRunDeterministic: the same seed prints the same bytes once the
// wall-clock lines are stripped, at any worker count.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-scale", "quick", "-seed", "3", "-trials", "2", "-arms", "csma,cmap", "-only", "fig12,fig14"}
	_, first, _ := cmapbench(append(args, "-parallel", "1")...)
	code, again, stderr := cmapbench(append(args, "-parallel", "2")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	first = strings.Replace(first, "workers=1", "workers=2", 1)
	if timing.ReplaceAllString(first, "") != timing.ReplaceAllString(again, "") {
		t.Fatalf("same seed printed different output:\n%s\nvs\n%s", first, again)
	}
}

// TestRunResume is the CLI-level campaign contract: a finished campaign
// replays every section from its directory with byte-identical tables,
// and a directory recorded under other result-changing flags is
// refused rather than mixed into.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "quick", "-trials", "1", "-load", "1,6", "-arms", "csma,cmap", "-only", "fig12,loadsweep", "-resume", dir}
	code, first, stderr := cmapbench(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	code, second, stderr := cmapbench(args...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr:\n%s", code, stderr)
	}
	if got, want := strings.Count(second, "[cached]\n"), strings.Count(first, "\n== "); got != want || want != 2 {
		t.Errorf("resumed run replayed %d of %d sections:\n%s", got, want, second)
	}
	if a, b := timing.ReplaceAllString(first, ""), strings.ReplaceAll(second, "[cached]\n", ""); a != b {
		t.Errorf("replayed tables differ:\n%s\nvs\n%s", a, b)
	}

	code, stdout, stderr := cmapbench(append(args, "-seed", "2")...)
	if code != 1 || !strings.Contains(stderr, checkpoint.ErrConfigMismatch.Error()) {
		t.Fatalf("other seed over the same campaign: exit %d, stderr %q; want 1 and %q", code, stderr, checkpoint.ErrConfigMismatch)
	}
	if stdout != "" {
		t.Errorf("refused campaign still printed: %q", stdout)
	}
}

// TestSummarizeBenchRuns: a -benchjson row is the median run by ns/op
// with the quartiles of ns/op across the runs, whatever order the runs
// came in.
func TestSummarizeBenchRuns(t *testing.T) {
	run := func(n int, nsOp int64, allocs uint64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: n, T: time.Duration(int64(n) * nsOp), MemAllocs: allocs * uint64(n), MemBytes: 8 * allocs * uint64(n)}
	}
	cases := []struct {
		name              string
		runs              []testing.BenchmarkResult
		median, q1, q3    float64
		iterations        int
		allocsOp, bytesOp int64
	}{
		{"five runs out of order", []testing.BenchmarkResult{
			run(10, 500, 5), run(30, 100, 1), run(20, 300, 3), run(40, 200, 2), run(50, 400, 4),
		}, 300, 200, 400, 20, 3, 24},
		{"an outlier moves neither the median nor the quartiles", []testing.BenchmarkResult{
			run(1, 100, 0), run(2, 101, 0), run(3, 102, 0), run(4, 103, 0), run(5, 9000, 0),
		}, 102, 101, 103, 3, 0, 0},
		{"one run is its own quartiles", []testing.BenchmarkResult{run(7, 250, 2)}, 250, 250, 250, 7, 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := summarize("B/n=1", tc.runs)
			want := benchRecord{Name: "B/n=1", Iterations: tc.iterations, NsPerOp: tc.median, NsPerOpQ1: tc.q1, NsPerOpQ3: tc.q3, BytesPerOp: tc.bytesOp, AllocsPerOp: tc.allocsOp}
			if got != want {
				t.Errorf("summarize = %+v, want %+v", got, want)
			}
		})
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mac"
)

// The -arm flag resolves through the internal/mac registry, so a typo
// must die at flag validation with the full menu of registered names,
// not deep inside a trial.
func TestResolveArmUnknown(t *testing.T) {
	_, err := mac.Lookup("bogus")
	if err == nil {
		t.Fatal("mac.Lookup accepted an unregistered arm")
	}
	for _, name := range []string{"bogus", "csma", "cmap", "rtscts", "cs@<dBm>"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestResolveArmFamilyMember(t *testing.T) {
	arm, err := mac.Lookup("cs@-82")
	if err != nil {
		t.Fatalf("mac.Lookup(cs@-82): %v", err)
	}
	if got := arm.Name(); got != "cs@-82" {
		t.Errorf("arm.Name() = %q, want cs@-82", got)
	}
}

func TestResolveArmMalformedFamilyMember(t *testing.T) {
	_, err := mac.Lookup("cs@junk")
	if err == nil {
		t.Fatal("mac.Lookup accepted a malformed cs@ member")
	}
	if !strings.Contains(err.Error(), "cs@junk") {
		t.Errorf("error %q does not name the malformed member", err)
	}
}

// cmapsim runs the command in-process and returns exit code, stdout and
// stderr. A panic fails the calling test by itself.
func cmapsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunReports drives the one CLI path: every arm prints the same
// per-flow counters line and an aggregate, and -trace records for
// whichever arm runs.
func TestRunReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stdout
	}{
		{"default", []string{"-duration", "2s"},
			[]string{"flow 0→2: ", "flow 29→30: ", " vpkts=", " dropped=", "aggregate: "}},
		{"csma", []string{"-duration", "2s", "-arm", "csma"},
			[]string{"flow 0→2: ", " sent=", " vpkts=0 ", "aggregate: "}},
		{"trace csma", []string{"-duration", "2s", "-arm", "csma", "-trace", "5"},
			[]string{"last 5 link-layer events", "dot11-"}},
		{"trace cmap", []string{"-duration", "2s", "-arm", "cmap", "-trace", "5"},
			[]string{"last 5 link-layer events", " data "}},
		{"arm list", []string{"-arm", "list"}, []string{"cmap\n", "rtscts\n", "cs@<dBm>\n"}},
		{"predict", []string{"-duration", "1s", "-arm", "cs@-82", "-predict"}, []string{"predict (CSMA, saturated): "}},
		{"trials", []string{"-duration", "1s", "-trials", "2", "-traffic", "poisson"},
			[]string{"trial  1: ", "aggregate over 2 trials", "latency pooled over trials"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cmapsim(tc.args...)
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

// TestRunUsageErrors: bad user input is an exit-2 message on stderr —
// never a panic, a run that prints zeros, or a silently dropped flag.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown arm", []string{"-arm", "bogus"}, "unknown arm"},
		{"NaN cs threshold", []string{"-arm", "cs@NaN"}, `cs@ arm "cs@NaN": threshold must be in`},
		{"infinite cs threshold", []string{"-arm", "cs@-Inf"}, `cs@ arm "cs@-Inf": threshold must be in`},
		{"retired flag", []string{"-protocol", "cmap"}, "not defined: -protocol"},
		{"retired shards flag", []string{"-shards", "2"}, "not defined: -shards"},
		{"negative index", []string{"-index", "-1"}, "-index -1"},
		{"zero duration", []string{"-duration", "0"}, "-duration 0s"},
		{"negative duration", []string{"-duration", "-1s"}, "-duration -1s"},
		{"trace with trials", []string{"-trace", "5", "-trials", "3"}, "-trials 3"},
		{"negative trace", []string{"-trace", "-5"}, "-trace -5"},
		{"negative trials", []string{"-trials", "-3"}, "-trials -3"},
		{"negative parallel", []string{"-parallel", "-4", "-trials", "2"}, "-parallel -4"},
		{"negative nodes", []string{"-scenario", "disk", "-nodes", "-7"}, "-nodes -7"},
		{"checkpoint with trials", []string{"-checkpoint", "x.json", "-trials", "2"}, "-checkpoint/-resume"},
		{"checkpoint interval", []string{"-checkpoint", "x.json", "-checkpoint-every", "0"}, "-checkpoint-every 0s"},
		{"bad mobility", []string{"-mobility", "teleport@3"}, "teleport"},
		{"NaN speed", []string{"-scenario", "disk", "-nodes", "50", "-mobility", "waypoint@NaN"}, `bad speed "NaN"`},
		{"infinite speed", []string{"-scenario", "disk", "-nodes", "50", "-mobility", "walk@Inf"}, `bad speed "Inf"`},
		{"overflowing speed", []string{"-mobility", "waypoint@1e300"}, `bad speed "1e300"`},
		{"NaN roam radius", []string{"-mobility", "waypoint@3@NaN"}, `bad roam radius "NaN"`},
		{"infinite roam radius", []string{"-mobility", "waypoint@3@+Inf"}, `bad roam radius "+Inf"`},
		{"bad traffic", []string{"-traffic", "pigeon"}, "pigeon"},
		{"bad load", []string{"-traffic", "cbr", "-load", "-1"}, "-load -1"},
		{"vanishing load", []string{"-traffic", "cbr", "-load", "1e-300"}, "outside [1, 2^56] ns"},
		{"endless churn", []string{"-traffic", "poisson", "-churn", "1000000h"}, "-churn 1000000h0m0s: traffic: UpMean"},
		{"bad topology", []string{"-topology", "star"}, "star"},
		{"bad scenario", []string{"-scenario", "moon"}, "moon"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cmapsim(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestRunDeterministic: the same flags print the same bytes, and a run
// resumed from its last checkpoint prints what the uninterrupted run
// does.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-duration", "3s", "-seed", "4", "-arm", "cmap"}
	_, want, _ := cmapsim(args...)
	if _, again, _ := cmapsim(args...); again != want {
		t.Fatalf("same seed printed different output:\n%s\nvs\n%s", want, again)
	}
	ck := t.TempDir() + "/ck.json"
	code, got, stderr := cmapsim(append(args, "-checkpoint", ck, "-checkpoint-every", "1s")...)
	if code != 0 || got != want {
		t.Fatalf("checkpointing run (exit %d, stderr %q) printed:\n%s\nwant:\n%s", code, stderr, got, want)
	}
	if !strings.Contains(stderr, "checkpoint: "+ck+" at t=2s") {
		t.Fatalf("no checkpoint note at t=2s on stderr: %q", stderr)
	}
	code, got, stderr = cmapsim(append(args, "-resume", ck)...)
	if code != 0 || got != want {
		t.Fatalf("resumed run (exit %d, stderr %q) printed:\n%s\nwant:\n%s", code, stderr, got, want)
	}
	if code, _, stderr := cmapsim(append(args, "-resume", ck+".missing")...); code != 1 || !strings.Contains(stderr, "resume: ") {
		t.Fatalf("missing checkpoint file: exit %d, stderr %q; want exit 1 naming the resume", code, stderr)
	}
}

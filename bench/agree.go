package main

import (
	"fmt"
	"math"
)

// runAgree runs the untraced set twice in one process and prints, per
// workload and metric, both medians and their relative difference. It
// returns the exit code: non-zero when the two sets were not measured
// under one host stamp, when an operation failed, or when a difference
// exceeds the metric's own bound — the benchmark cannot then tell a
// regression of that size from its own noise.
func (b bench) runAgree(run []workload, spec *benchSpec, seed uint64, seconds float64) int {
	var sets [2][]outcome
	var stamps [2]hostStamp
	for s := range sets {
		stamps[s] = readHostStamp()
		for _, w := range run {
			fmt.Printf("set %c: %s ...\n", 'A'+s, w.Name())
			sets[s] = append(sets[s], runUntraced(w, seed, seconds))
		}
	}
	fmt.Printf("host A: %s\nhost B: %s\n", stamps[0], stamps[1])
	code := 0
	if diff := stamps[0].differences(stamps[1]); len(diff) > 0 {
		fmt.Printf("NOT comparable, the host stamps differ: %v\n", diff)
		code = 1
	} else {
		fmt.Println("comparable: both sets carry one host stamp")
	}
	fmt.Printf("%-14s %-18s %-10s %14s %14s %9s %7s\n", "workload", "metric", "unit", "median A", "median B", "diff", "bound")
	for i, w := range run {
		a, c := sets[0][i], sets[1][i]
		for _, o := range []outcome{a, c} {
			for _, f := range o.failures {
				fmt.Printf("FAILED %s: %s\n", w.Name(), f)
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			diff := math.Abs(c.values[m.Name]-a.values[m.Name]) / math.Abs(a.values[m.Name])
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-18s %-10s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				w.Name(), m.Name, m.Unit, a.values[m.Name], c.values[m.Name], 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}

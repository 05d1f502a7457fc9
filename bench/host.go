package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// hostStamp says where a result set was measured. Two sets are
// comparable only when their stamps are equal: a different CPU, core
// count or toolchain moves every host-time metric.
type hostStamp struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	Go         string
	Commit     string
}

func (h hostStamp) String() string {
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit)
}

// differences lists the fields in which two stamps differ.
func (h hostStamp) differences(o hostStamp) []string {
	var d []string
	add := func(field string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: %v vs %v", field, a, b))
		}
	}
	add("cpu", h.CPU, o.CPU)
	add("num_cpu", h.NumCPU, o.NumCPU)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go", h.Go, o.Go)
	add("commit", h.Commit, o.Commit)
	return d
}

func readHostStamp() hostStamp {
	h := hostStamp{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The commit is stamped by the go tool when the driver is built
	// inside a git checkout; an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if len(rev) >= 7 {
			h.Commit = rev[:7] + dirty
		}
	}
	return h
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

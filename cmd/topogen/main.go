// Command topogen generates a simulated testbed and reports its link
// census against the paper's §5.1 numbers, plus the availability of
// every experiment topology class. With -scenario it instead generates
// one of the large-scale layouts (grid city, clustered APs, uniform
// disk) and reports sparse-medium statistics: audible-neighbour degree
// and delivery-list population versus the dense n² pair count.
//
// Usage:
//
//	topogen [-n 50] [-seed 1] [-positions]
//	topogen -scenario gridcity [-blocks 8] [-perblock 6] [-blockm 400]
//	topogen -scenario clusters [-cells 12] [-clients 10] [-side 2500] [-cellradius 40]
//	topogen -scenario disk [-n 1000] [-density 50]
//	        [-census] runs the O(n²) measurement pass and prints the link census
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	n := flag.Int("n", 50, "node count (testbed, disk)")
	seed := flag.Uint64("seed", 1, "topology seed")
	positions := flag.Bool("positions", false, "print node coordinates")
	scenario := flag.String("scenario", "testbed", "testbed | gridcity | clusters | disk")
	blocks := flag.Int("blocks", 8, "gridcity: blocks per side")
	perBlock := flag.Int("perblock", 6, "gridcity: nodes per block")
	blockM := flag.Float64("blockm", 400, "gridcity: block edge in metres")
	cells := flag.Int("cells", 12, "clusters: AP cell count")
	clients := flag.Int("clients", 10, "clusters: clients per cell")
	side := flag.Float64("side", 2500, "clusters: area edge in metres")
	cellRadius := flag.Float64("cellradius", 40, "clusters: client disk radius in metres")
	density := flag.Float64("density", 50, "disk: nodes per km²")
	census := flag.Bool("census", false, "scenario modes: also run the O(n²) measurement pass")
	flag.Parse()

	if *scenario == "testbed" {
		printTestbed(topo.NewTestbed(*n, *seed), *seed, *positions)
		return
	}

	var s *topo.Scenario
	switch *scenario {
	case "gridcity":
		s = topo.GridCity(*blocks, *blocks, *perBlock, *blockM, *seed)
	case "clusters":
		s = topo.ClusteredAPs(*cells, *clients, *side, *cellRadius, *seed)
	case "disk":
		s = topo.UniformDisk(*n, *density, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	if s.N() < 2 {
		fmt.Fprintf(os.Stderr, "scenario %s has %d nodes; need at least 2\n", s.Name, s.N())
		os.Exit(1)
	}

	// The eager build of every row, as topo.Testbed.Shared makes it: a
	// medium.New medium builds each row on its first read instead.
	start := time.Now()
	rows, gridBacked := medium.BuildDeliveries(s.Params, s.Model, s.Pos, 0)
	elapsed := time.Since(start)

	degrees := make([]int, s.N())
	total := 0
	for i, row := range rows {
		degrees[i] = len(row)
		total += degrees[i]
	}
	sort.Ints(degrees)
	construction := "spatial grid without a range bound (every pair)"
	if gridBacked {
		construction = "spatial grid"
	}
	fmt.Printf("scenario %s: %d nodes on %.0f×%.0f m (seed %d)\n",
		s.Name, s.N(), s.Bounds.Width(), s.Bounds.Height(), *seed)
	fmt.Printf("medium construction: %s, %v\n", construction, elapsed.Round(time.Microsecond))
	fmt.Printf("delivery-list entries: %d of %d ordered pairs (%.1f%%)\n",
		total, s.N()*(s.N()-1), 100*float64(total)/float64(s.N()*(s.N()-1)))
	fmt.Printf("audible degree: mean %.1f  median %d  min %d  max %d\n",
		float64(total)/float64(s.N()), degrees[len(degrees)/2], degrees[0], degrees[len(degrees)-1])
	if len(s.APs) > 0 {
		fmt.Printf("designated APs: %d\n", len(s.APs))
	}

	if *census {
		tb := s.Testbed()
		c := tb.Census()
		fmt.Printf("\nlink census (O(n²) measurement pass):\n")
		fmt.Printf("connected ordered pairs: %d\n", c.ConnectedPairs)
		fmt.Printf("PRR < 0.1: %.1f%%   0.1 ≤ PRR < 1: %.1f%%   PRR = 1: %.1f%%\n",
			100*c.FracLow, 100*c.FracMid, 100*c.FracFull)
		fmt.Printf("mean degree %.1f, median %.1f (PRR ≥ 0.1 neighbours)\n", c.MeanDegree, c.MedianDegree)
	}

	if *positions {
		fmt.Printf("\nnode positions (m):\n")
		for i, p := range s.Pos {
			fmt.Printf("  %4d: %s\n", i, p)
		}
	}
}

func printTestbed(tb *topo.Testbed, seed uint64, positions bool) {
	c := tb.Census()
	fmt.Printf("testbed: %d nodes on %.0f×%.0f m (seed %d)\n",
		tb.N, tb.Bounds.Width(), tb.Bounds.Height(), seed)
	fmt.Printf("connected ordered pairs: %d        (paper: 2162)\n", c.ConnectedPairs)
	fmt.Printf("PRR < 0.1        : %5.1f%%        (paper: 68%%)\n", 100*c.FracLow)
	fmt.Printf("0.1 ≤ PRR < 1    : %5.1f%%        (paper: 12%%)\n", 100*c.FracMid)
	fmt.Printf("PRR = 1          : %5.1f%%        (paper: 20%%)\n", 100*c.FracFull)
	fmt.Printf("mean degree      : %5.1f         (paper: 15.2)\n", c.MeanDegree)
	fmt.Printf("median degree    : %5.1f         (paper: 17)\n", c.MedianDegree)
	fmt.Printf("signal percentiles: p10 %.1f dBm, p90 %.1f dBm\n\n", tb.SignalP10(), tb.SignalP90())

	rng := sim.NewRNG(seed * 977)
	fmt.Printf("experiment topology availability:\n")
	fmt.Printf("  exposed pairs (Fig. 11a): %d/50\n", len(tb.ExposedPairs(rng, 50)))
	fmt.Printf("  in-range pairs (Fig. 11b): %d/50\n", len(tb.InRangePairs(rng, 50)))
	fmt.Printf("  hidden pairs (Fig. 11c): %d/50\n", len(tb.HiddenPairs(rng, 50)))
	fmt.Printf("  interferer triples (§5.4): %d/500\n", len(tb.HiddenInterfererTriples(rng, 500)))
	fmt.Printf("  AP cells (§5.6): %d/6\n", len(tb.APRegions()))
	fmt.Printf("  meshes (Fig. 11d): %d/10\n", len(tb.MeshTopologies(rng, 10, 3)))

	if positions {
		fmt.Printf("\nnode positions (m):\n")
		for i, p := range tb.Pos {
			fmt.Printf("  %2d: %s\n", i, p)
		}
	}
}

// Quickstart: the paper's Figure 1 in forty lines.
//
// Two flows S→R and ES→ER form an exposed-terminal pair: the senders hear
// each other, but each receiver is far enough from the other sender that
// both transmissions succeed concurrently. 802.11's carrier sense makes
// the senders take turns; CMAP learns there is no conflict and lets them
// overlap, doubling aggregate throughput.
package main

import (
	"fmt"
	"time"

	cmap "repro"
)

// Loss matrix in dB between S(0), R(1), ES(2), ER(3): senders hear each
// other (75 dB ≈ -65 dBm), each sender→own-receiver link is strong
// (68 dB), and the cross links are below the radios' sensitivity.
var figure1 = [][]float64{
	{0, 68, 75, 108},
	{68, 0, 108, 300},
	{75, 108, 0, 68},
	{108, 300, 68, 0},
}

func run(name string, attach func(nw *cmap.Network, id int) *cmap.Station) float64 {
	nw := cmap.NewLossNetwork(figure1, 42)
	s := attach(nw, 0)
	r := attach(nw, 1)
	es := attach(nw, 2)
	er := attach(nw, 3)

	r.Measure(4*time.Second, 12*time.Second)
	er.Measure(4*time.Second, 12*time.Second)
	s.Saturate(1)
	es.Saturate(3)
	nw.Run(12 * time.Second)

	agg := r.GoodputMbps() + er.GoodputMbps()
	fmt.Printf("%-18s S→R %5.2f Mb/s   ES→ER %5.2f Mb/s   aggregate %5.2f Mb/s\n",
		name, r.GoodputMbps(), er.GoodputMbps(), agg)
	return agg
}

func main() {
	fmt.Println("Exposed terminals (Figure 1), saturated flows of the default payload at 6 Mb/s:")
	dcf := run("802.11 (CS, acks)", func(nw *cmap.Network, id int) *cmap.Station {
		return nw.AddDCF(id)
	})
	cm := run("CMAP", func(nw *cmap.Network, id int) *cmap.Station {
		return nw.AddCMAP(id)
	})
	fmt.Printf("\nCMAP/802.11 gain: %.2fx (the paper's Figure 12 reports ≈2x)\n", cm/dcf)
}

package traffic_test

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// queue is a toy Enqueuer standing in for a link-layer node: it serves
// one packet per millisecond, so a fast-enough arrival process fills
// its finite backlog and sees tail drops. Its service tick is its own
// agenda event.
type queue struct {
	sched   *sim.Scheduler
	backlog int
	served  int
}

func (q *queue) Enqueue(dst, count int) { q.backlog += count }
func (q *queue) Backlog(dst int) int    { return q.backlog }
func (q *queue) HandleEvent(any) {
	if q.backlog > 0 {
		q.backlog--
		q.served++
	}
	q.sched.PostAfter(sim.Millisecond, q, nil)
}

// Example drives a bursty ON/OFF workload into a rate-limited queue for
// one virtual second. The source offers 2000 packets/s during ON bursts
// (mean 100 ms, alternating with mean 100 ms of silence — a 1000 pkt/s
// long-run rate); the queue serves only 1000 pkt/s, so long bursts
// overflow the 256-packet cap and drop at the tail.
func Example() {
	sched := sim.NewScheduler()
	q := &queue{sched: sched}
	q.HandleEvent(nil)

	spec := traffic.Spec{Kind: traffic.OnOff, PacketsPerSec: 2000}
	src := traffic.NewSource(sched, sim.NewRNG(42), spec, q, 1)
	src.Start()

	sched.Run(1 * sim.Second)
	st := src.Stats()
	fmt.Printf("offered=%d accepted=%d dropped=%d served=%d\n",
		st.Offered, st.Accepted, st.Dropped, q.served)
	fmt.Printf("long-run offered load at 1400-byte payloads: %.2f Mb/s\n",
		spec.OfferedMbps(1400))
	// Output:
	// offered=1344 accepted=1101 dropped=243 served=846
	// long-run offered load at 1400-byte payloads: 11.20 Mb/s
}

package analytic

import (
	"math"

	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/frame"
	"repro/internal/phy"
)

// Arm selects which link layer the solver models.
type Arm int

// The modelled protocol arms.
const (
	// ArmCSMA is 802.11 DCF with carrier sense and link ACKs — the
	// paper's status-quo baseline.
	ArmCSMA Arm = iota
	// ArmCMAP is the conflict-map link layer: deferral only to audible
	// transmissions that actually conflict, so exposed-terminal sense
	// edges are relaxed.
	ArmCMAP
)

// String returns the arm's label.
func (a Arm) String() string {
	if a == ArmCMAP {
		return "CMAP"
	}
	return "CSMA"
}

// Options parameterises Solve. The zero value of each field selects a
// default: the protocol configurations fall back to the simulator's own
// DefaultConfig values, and the MAC constants no Config carries are
// read from core and csma, so oracle and simulator model one copy of
// each.
type Options struct {
	// Arm picks the link layer being modelled.
	Arm Arm
	// CSMA supplies DCF settings for ArmCSMA (zero → csma.DefaultConfig).
	CSMA csma.Config
	// CMAP supplies CMAP settings for ArmCMAP (zero → core.DefaultConfig).
	CMAP core.Config
	// MaxIter bounds the fixed-point iteration (default 4000).
	MaxIter int
}

const (
	// tol is the convergence threshold on the max-norm residual of the
	// occupancy update.
	tol = 1e-9
	// damping is the step fraction applied per iteration; values in
	// (0, 1] trade speed against stability.
	damping = 0.5
)

func (o Options) withDefaults() Options {
	if o.Arm == ArmCSMA && o.CSMA == (csma.Config{}) {
		o.CSMA = csma.DefaultConfig()
	}
	if o.Arm == ArmCMAP && o.CMAP == (core.Config{}) {
		o.CMAP = core.DefaultConfig()
	}
	if o.MaxIter == 0 {
		o.MaxIter = 4000
	}
	return o
}

// Result is the solved fixed point.
type Result struct {
	// Arm echoes the modelled link layer.
	Arm Arm
	// FlowMbps is each flow's predicted saturated goodput.
	FlowMbps []float64
	// Occupancy is each flow's stationary fraction of time on air.
	Occupancy []float64
	// Success is each flow's per-data-packet delivery probability at the
	// fixed point (isolation PRR × concurrent-interference survival);
	// reverse-channel losses surface in the backoff, not here.
	Success []float64
	// Iterations is how many update sweeps ran.
	Iterations int
	// Residual is the final max-norm update step — a bound on how far
	// the returned point is from the true fixed point.
	Residual float64
	// Converged reports whether Residual fell below the tolerance
	// before MaxIter (false also on numerical divergence).
	Converged bool
}

// AggregateMbps sums the per-flow goodputs.
func (r *Result) AggregateMbps() float64 {
	var s float64
	for _, v := range r.FlowMbps {
		s += v
	}
	return s
}

// macTiming is the per-flow renewal-cycle timing of one protocol arm,
// in seconds.
type macTiming struct {
	hold []float64                      // channel hold per transmission attempt
	bits []float64                      // payload bits a fully successful attempt delivers
	pkt  []float64                      // airtime of one data packet (the collision window)
	ctrl []float64                      // airtime of the reverse ACK/control reply
	gap  func(i int, p float64) float64 // mean off-air time per cycle at loss probability p
	// lockUnit is how many data frames one contiguous channel hold airs
	// back to back (DCF 1, CMAP Nvpkt). Only the first frame of a hold
	// can find the victim receiver captured by an interferer — phy radios
	// attempt lock solely at signal starts, so once the receiver follows
	// the burst the interferer cannot re-steal it mid-stream.
	lockUnit float64
	// stall, when non-nil, is the per-cycle off-air time the ARQ adds at
	// per-data-frame loss probability loss — CMAP's window-exhaustion
	// retransmission timeout (see cmapTiming).
	stall func(i int, loss float64) float64
	// abortive marks arms whose attempt airs no data when the control
	// handshake fails (CMAP: a lost control reply costs only the control
	// airtime plus the tackwait in gap, never the virtual packet).
	abortive bool
}

// dcfTiming derives DCF cycle timing: hold is DATA + SIFS + ACK, the gap
// is DIFS plus the attempt-averaged backoff of the binary-exponential
// ladder at per-attempt failure probability p.
func dcfTiming(g *Graph, cfg csma.Config) macTiming {
	n := g.N()
	t := macTiming{hold: make([]float64, n), bits: make([]float64, n), pkt: make([]float64, n), ctrl: make([]float64, n), lockUnit: 1}
	ackAir := phy.Airtime(phy.RateByID(csma.ControlRate), (&frame.Dot11Ack{}).WireSize()).Seconds()
	wire := (&frame.Dot11Data{PayloadLen: uint16(cfg.PayloadBytes)}).WireSize()
	for i := 0; i < n; i++ {
		dataAir := phy.Airtime(g.Rates[i], wire).Seconds()
		t.pkt[i] = dataAir
		t.hold[i] = dataAir + phy.SIFS.Seconds() + ackAir
		t.bits[i] = 8 * float64(cfg.PayloadBytes)
		t.ctrl[i] = ackAir
	}
	// Contention-window ladder: cw doubles per failed attempt up to
	// CWMax, for at most RetryLimit retries.
	cws := make([]float64, 0, csma.RetryLimit+1)
	cw := csma.CWMin
	for k := 0; k <= csma.RetryLimit; k++ {
		cws = append(cws, float64(cw))
		cw = min(2*cw+1, csma.CWMax)
	}
	slot := phy.SlotTime.Seconds()
	difs := phy.DIFS.Seconds()
	t.gap = func(_ int, p float64) float64 {
		var num, den, w float64
		w = 1
		for _, c := range cws {
			num += w * c / 2
			den += w
			w *= p
		}
		return difs + slot*num/den
	}
	return t
}

// cmapTiming derives CMAP cycle timing: hold is one full virtual packet
// (header + Nvpkt data + trailer), the gap is the ACK exchange (two
// software turnarounds around the ACK airtime) on success, the tackwait
// timeout on failure, plus the attempt-averaged loss-driven contention
// window.
func cmapTiming(g *Graph, cfg core.Config) macTiming {
	n := g.N()
	t := macTiming{hold: make([]float64, n), bits: make([]float64, n), pkt: make([]float64, n), ctrl: make([]float64, n), lockUnit: float64(cfg.Nvpkt), abortive: true}
	ctrlAir := phy.Airtime(phy.RateByID(core.ControlRate), (&frame.Control{}).WireSize()).Seconds()
	ackWire := (&frame.Ack{Bitmap: make([]byte, (cfg.Nvpkt+7)/8)}).WireSize()
	ackAir := phy.Airtime(phy.RateByID(core.ControlRate), ackWire).Seconds()
	dataWire := (&frame.Data{PayloadLen: uint16(cfg.PayloadBytes)}).WireSize()
	controls := 2.0
	if cfg.DisableTrailers {
		controls = 1
	}
	for i := 0; i < n; i++ {
		dataAir := phy.Airtime(g.Rates[i], dataWire).Seconds()
		t.pkt[i] = dataAir
		t.hold[i] = controls*ctrlAir + float64(cfg.Nvpkt)*dataAir
		t.bits[i] = float64(cfg.Nvpkt) * 8 * float64(cfg.PayloadBytes)
		t.ctrl[i] = ctrlAir
	}
	// The §4.1 software turnaround distribution (90% uniform in
	// [T/2, 2T], 10% in [2T, 5T]) has mean 1.475 T; a successful cycle
	// pays it twice (receiver before the ACK, sender after it).
	meanTA := 1.475 * core.Turnaround.Seconds()
	// Loss-driven ladder: CW doubles from CWStart to CWMax while
	// reported loss stays above l_backoff; backoff draws uniform [0, cw].
	cws := []float64{}
	for cw := core.CWStart.Seconds(); ; cw *= 2 {
		if cwMax := core.CWMax.Seconds(); cw >= cwMax {
			cws = append(cws, cwMax)
			break
		}
		cws = append(cws, cw)
	}
	tack := core.TackWait.Seconds()
	t.gap = func(_ int, p float64) float64 {
		num, den, w := 0.0, 1.0, 1.0 // level 0: no contention window
		for _, c := range cws {
			w *= p
			num += w * c / 2
			den += w
		}
		return (1-p)*(2*meanTA+ackAir) + p*tack + num/den
	}
	// Window-exhaustion stall: the ACK bitmap spans only one virtual
	// packet past the cumulative point, so once a loss stalls that point
	// the whole Nwindow-vpkt send window drains into unackable packets
	// and the sender sits out a retransmission timeout drawn from
	// [τ_max/2, τ_max] with τ_max ≈ the outstanding airtime (§3.3,
	// Node.trySend). Amortised per cycle: one such stall (mean ≈ 0.75
	// of the full-window airtime) every 1/(Nvpkt·loss) fresh virtual
	// packets until the stall begins plus Nwindow/(1−loss) to drain.
	t.stall = func(i int, loss float64) float64 {
		if loss <= 0 || loss >= 1 {
			return 0
		}
		window := float64(cfg.Nwindow*cfg.Nvpkt) * t.pkt[i]
		cycles := 1/(float64(cfg.Nvpkt)*loss) + float64(cfg.Nwindow)/(1-loss)
		return 0.75 * window / cycles
	}
	return t
}

// concEdge is one interferer a flow does not defer to, with its stored
// ordering-split reception ratios.
type concEdge struct {
	j     int
	inter interference
}

// armSets maps the graph's edges onto per-arm defer neighbourhoods and
// concurrent-interferer lists:
//
//   - CSMA defers to every sense edge (carrier sense is indiscriminate,
//     which is exactly the exposed-terminal problem).
//   - CMAP defers only to sense edges that conflict in at least one
//     direction — the defer-table rules (§3.2) — so exposed-terminal
//     edges are relaxed.
//   - Every other flow whose stored interference ratios are not all
//     identity becomes a concurrent edge: hidden interferers the sender
//     cannot hear, and (under CMAP's relaxation) audible peers whose
//     residual interference falls below the defer threshold but still
//     costs bits on the data or reverse channel.
func armSets(g *Graph, arm Arm) (deferAdj [][]bool, conc [][]concEdge) {
	n := g.N()
	deferAdj = make([][]bool, n)
	conc = make([][]concEdge, n)
	for i := 0; i < n; i++ {
		deferAdj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for _, j := range g.sense[i] {
			if arm == ArmCSMA || g.Harms(i, j) || g.Harms(j, i) {
				deferAdj[i][j] = true
				deferAdj[j][i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || deferAdj[i][j] || g.inter[i][j] == noInterference {
				continue
			}
			conc[i] = append(conc[i], concEdge{j: j, inter: g.inter[i][j]})
		}
	}
	return deferAdj, conc
}

// cliqueCover greedily partitions each flow's defer neighbourhood into
// cliques of the defer graph. The fixed point treats each clique as one
// exclusive channel (exact for an isolated clique) and distinct cliques
// as independent — the standard clique-cover closure of the mean-field
// CSMA model.
func cliqueCover(deferAdj [][]bool) [][][]int {
	n := len(deferAdj)
	cover := make([][][]int, n)
	for i := 0; i < n; i++ {
		var cliques [][]int
	next:
		for j := 0; j < n; j++ {
			if !deferAdj[i][j] {
				continue
			}
			for k, c := range cliques {
				ok := true
				for _, m := range c {
					if !deferAdj[j][m] {
						ok = false
						break
					}
				}
				if ok {
					cliques[k] = append(c, j)
					continue next
				}
			}
			cliques = append(cliques, []int{j})
		}
		cover[i] = cliques
	}
	return cover
}

// overlapProb is the probability one frame of airtime w overlaps a
// concurrent interferer of occupancy x and hold time T: the complement
// of the interferer being idle when the frame starts and starting
// nothing during it (renewal approximation of the staggered-overlap
// integral).
func overlapProb(x, w, T float64) float64 {
	if x >= 1 {
		return 1
	}
	return 1 - (1-x)*math.Exp(-x*w/T)
}

// blendRatio folds one interferer's channelRatios into the expected
// conditional reception ratio of a victim frame that overlaps it, given
// the interferer's occupancy xj, the victim's own occupancy xi, the
// overlap probability q, and lockUnit data frames per contiguous victim
// hold:
//
//   - With probability xj/q the interferer was already on air when the
//     frame started. Within that ordering the interferer actually holds
//     the receiver's lock only if its frame both locked (lockJ) and
//     arrived while the receiver was free (≈ 1−xi, the victim stream
//     was not being followed) — and only the first of the hold's
//     lockUnit frames can be met by a stolen lock, because the receiver
//     re-locks each subsequent frame the instant the previous one ends.
//     The remainder of the ordering is a plain lock through
//     interference (ii).
//   - Otherwise the interferer started mid-frame: the receiver already
//     held the victim's frame, and only payload bits are at risk (vf).
func blendRatio(c channelRatios, xj, xi, q, lockUnit float64) float64 {
	wStart := 0.0
	if q > 0 {
		wStart = math.Min(xj/q, 1)
	}
	held := clamp01(c.lockJ * (1 - xi) / lockUnit)
	rStart := held*c.cap + (1-held)*c.ii
	return (1-wStart)*c.vf + wStart*rStart
}

// concSurvival folds flow i's concurrent interferers into three
// survival probabilities against a snapshot of the occupancies x: sd
// for one data frame, st for a short control frame on the same forward
// channel (CMAP's trailer, which gates ACK generation at the receiver),
// and sc for the reverse ACK/control reply. Each interferer's
// lock-ordering ratio decomposition is blended by its duty cycle
// (blendRatio) and applied over the probability the two actually
// overlap.
func concSurvival(conc []concEdge, x []float64, t macTiming, i int) (sd, st, sc float64) {
	sd, st, sc = 1, 1, 1
	xi := x[i]
	for _, e := range conc {
		xj := x[e.j]
		qd := overlapProb(xj, t.pkt[i], t.hold[e.j])
		rd := blendRatio(e.inter.data, xj, xi, qd, t.lockUnit)
		sd *= 1 - qd*(1-rd)
		qt := overlapProb(xj, t.ctrl[i], t.hold[e.j])
		rt := blendRatio(e.inter.data, xj, xi, qt, t.lockUnit)
		st *= 1 - qt*(1-rt)
		// The reverse reply is a single short frame; its receiver (the
		// victim's sender) re-arms every cycle, so lockUnit is 1.
		rr := blendRatio(e.inter.rev, xj, xi, qt, 1)
		sc *= 1 - qt*(1-rr)
	}
	return sd, st, sc
}

// bestResponse solves flow i's scalar occupancy equation given its
// neighbours' occupancies, frozen as per-clique busy sums S_k:
//
//	x = ρ·(1−x)·Π_k max(0, 1 − S_k/(1−x))
//
// The right-hand side is strictly decreasing in x wherever it is
// positive and the left-hand side strictly increasing, so the root is
// unique; 60 bisection steps pin it far below the solver tolerance.
func bestResponse(rho float64, sums []float64) float64 {
	excess := func(x float64) float64 {
		idle := 1 - x
		v := rho * idle
		for _, s := range sums {
			v *= math.Max(0, 1-s/idle)
		}
		return v - x
	}
	lo, hi := 0.0, 1.0
	for it := 0; it < 60; it++ {
		mid := (lo + hi) / 2
		if excess(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Solve runs a damped best-response iteration for the stationary
// per-flow air occupancy x. Each sweep solves every flow's scalar
// balance equation
//
//	x_i = ρ_i·(1−x_i)·Π_cliques max(0, 1 − Σ_{j∈C} x_j/(1−x_i))
//
// exactly (bestResponse) against a snapshot of the other flows, where
// ρ_i = hold_i/gap_i(p_i) is the flow's attempt intensity and each
// clique of its defer neighbourhood is treated as one exclusive channel.
// On an isolated clique the fixed point is exactly the product-form
// x_i = ρ_i/(1+Σ_j ρ_j); beyond cliques it is the standard mean-field
// approximation. Concurrent interferers — hidden ones, and under CMAP
// the relaxed audible ones — degrade the data, trailer and reverse
// channels through concSurvival and feed back through
// p_i = 1 − s_i·ctrlOK_i, inflating the contention window the way lost
// ACKs do in the simulator; CMAP additionally pays the
// window-exhaustion stall (macTiming.stall) in its off-air time. The
// outer loop damps the step and adapts the damping factor (halving it
// when the residual grows) because best-response dynamics on dense
// graphs oscillate at full step size. Goodput is
// (x_i/hold_i)·bits_i·s_i for DCF; the CMAP arm instead multiplies by
// the handshake probability and the ARQ duplicate efficiency
// (arqEfficiency), which subsume s_i.
func Solve(g *Graph, opt Options) *Result {
	opt = opt.withDefaults()
	n := g.N()
	var timing macTiming
	if opt.Arm == ArmCMAP {
		timing = cmapTiming(g, opt.CMAP)
	} else {
		timing = dcfTiming(g, opt.CSMA)
	}
	deferAdj, conc := armSets(g, opt.Arm)
	cover := cliqueCover(deferAdj)

	x := make([]float64, n)
	xNew := make([]float64, n)
	s := make([]float64, n)
	ctrlOK := make([]float64, n)
	hold := make([]float64, n)
	var sums []float64
	res := &Result{Arm: opt.Arm, FlowMbps: make([]float64, n), Occupancy: x, Success: s}
	damp, prevResid := damping, math.Inf(1)
	for it := 1; it <= opt.MaxIter; it++ {
		res.Iterations = it
		res.Residual = 0
		diverged := false
		// Jacobi-style sweep: every best response reads the previous
		// iterate, so symmetric graphs stay exactly symmetric.
		for i := 0; i < n; i++ {
			sd, st, sc := concSurvival(conc[i], x, timing, i)
			s[i] = g.IsoPRR[i] * sd
			// The handshake that completes an attempt: for DCF the link
			// ACK; for CMAP the trailer (forward channel, triggers the
			// ACK) and the ACK reply both.
			ctrlOK[i] = sc
			if timing.abortive {
				ctrlOK[i] = st * sc
			}
			p := 1 - s[i]*ctrlOK[i]
			// An abortive arm spends the full hold only when the control
			// handshake succeeds; a failed one costs just the control
			// airtime (the tackwait timeout is in gap's p-term).
			hold[i] = timing.hold[i]
			off := timing.gap(i, p)
			if timing.abortive {
				hold[i] = ctrlOK[i]*timing.hold[i] + (1-ctrlOK[i])*timing.ctrl[i]
			}
			if timing.stall != nil {
				off += timing.stall(i, 1-s[i])
			}
			rho := hold[i] / off
			sums = sums[:0]
			for _, c := range cover[i] {
				var busy float64
				for _, j := range c {
					busy += x[j]
				}
				sums = append(sums, busy)
			}
			v := bestResponse(rho, sums)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				diverged = true
				break
			}
			xNew[i] = v
			if d := math.Abs(v - x[i]); d > res.Residual {
				res.Residual = d
			}
		}
		if diverged {
			res.Converged = false
			break
		}
		if res.Residual <= tol {
			res.Converged = true
			break
		}
		if res.Residual > prevResid {
			damp = math.Max(damp/2, 1.0/64)
		} else {
			damp = math.Min(damp*1.1, damping)
		}
		prevResid = res.Residual
		for i := 0; i < n; i++ {
			x[i] += damp * (xNew[i] - x[i])
		}
	}
	for i := 0; i < n; i++ {
		delivered := s[i]
		if timing.abortive {
			// Only handshake-complete attempts air data at all, and the
			// attempt rate is occupancy over the abort-weighted hold.
			// Per-frame loss further bleeds goodput through the ARQ
			// duplicate amplifier (arqEfficiency).
			delivered = arqEfficiency(1-s[i]) * ctrlOK[i]
		}
		res.FlowMbps[i] = x[i] / hold[i] * timing.bits[i] * delivered / 1e6
	}
	return res
}

// arqEfficiency is the fraction of CMAP's transmitted data frames that
// deliver a not-yet-delivered packet, at per-frame loss probability
// loss. CMAP's selective-repeat window is acknowledged by a cumulative
// sequence plus a bitmap that spans only one virtual packet past the
// cumulative point (frame.Ack), so a straggler loss leaves
// delivered-but-unackable packets beyond that horizon and the sender
// blindly retransmits them — duplicate airtime that peaks under light
// loss and vanishes under heavy loss, where retransmissions carry
// genuinely undelivered packets. The duplicate count per lost frame,
// D(loss) = 6.7·(1−loss)⁵, is calibrated against the simulator's
// duplicate-delivery counters in the hidden-terminal regime (≈4.5 dups
// per loss at 8% loss, ≈0.01 at 74%); the accounting identity
// fresh/sent = (1−loss) − loss·D(loss) then gives the efficiency.
func arqEfficiency(loss float64) float64 {
	if loss <= 0 {
		return 1
	}
	rem := 1 - loss
	dupsPerLoss := 6.7 * rem * rem * rem * rem * rem
	return math.Max(0, rem-loss*dupsPerLoss)
}

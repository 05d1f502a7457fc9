package mac

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DeliverFunc observes each non-duplicate payload delivery at a
// receiver: the sending node, the packet's link-layer sequence number
// and the delivery time.
type DeliverFunc func(src int, seq uint32, now sim.Time)

// DefaultPayload is the application payload per data packet in bytes
// that every arm sends unless Options.Payload says otherwise, the
// evaluation's packet size.
const DefaultPayload = 1400

// Options carries the cross-arm knobs an experiment hands to Arm.New.
// Arm-specific configuration (window sizes, thresholds, RTS policy)
// lives in the arm's registered identity instead, so a registry name
// fully determines behaviour.
type Options struct {
	// Rate is the data bit-rate every arm must honour. Callers set it
	// explicitly; there is no usable zero value.
	Rate phy.RateID
	// Payload is the application payload per data packet in bytes,
	// bounded by CheckPayload; zero keeps DefaultPayload.
	Payload int
}

// Broadcaster is the optional §3.6 surface of CMAP-family stations:
// broadcast virtual packets addressed to an explicit target set, either
// saturated or count packets at a time.
type Broadcaster interface {
	SetBroadcast(targets []int, saturated bool, count int)
	EnqueueBroadcast(count int)
}

// Node is the station-side contract every registered MAC arm satisfies.
// It is the exact surface the experiment harness, the traffic subsystem
// (Enqueue/Backlog form traffic.Enqueuer) and the conformance suite
// drive an arm through.
type Node interface {
	// ID returns the node's medium index.
	ID() int
	// SetSaturated makes the node an always-backlogged source towards
	// dst, the paper's saturated traffic model.
	SetSaturated(dst int)
	// Enqueue adds count packets destined to dst; Backlog reports how
	// many enqueued-but-unattempted packets remain for dst. Together
	// they satisfy traffic.Enqueuer.
	Enqueue(dst int, count int)
	Backlog(dst int) int
	// Idle reports whether the sender has fully drained: no staged or
	// queued packets and no in-flight window. Saturated senders are
	// never idle.
	Idle() bool
	// SetMeter points the node's receiver at a goodput meter.
	SetMeter(m *stats.Meter)
	// SetOnDeliver registers a non-duplicate delivery observer.
	SetOnDeliver(fn DeliverFunc)
	// LatencyWindow returns how many in-flight packets a traffic source
	// must remember to map deliveries back to arrival times (the arm's
	// maximum send window in packets).
	LatencyWindow() int
	// Counters snapshots the station's protocol counters.
	Counters() Counters
}

// Counters is every arm's one per-station counter struct: each station
// counts straight into its own, and Node.Counters returns a copy. Plain
// event counts since construction, zero where an arm has no such
// concept (a DCF station sends no virtual packets, CMAP has no retry
// limit to drop at). Sender-side and receiver-side counts share the
// struct because every station is both.
type Counters struct {
	Sent       uint64 // data packets put on the air, retries included
	Delivered  uint64 // non-duplicate data packets received for this station
	Duplicates uint64
	// Dropped counts packets the MAC abandoned (e.g. at a retry limit);
	// the backlog-conservation invariant is
	// accepted = delivered + Dropped + Backlog once the sender drains.
	Dropped       uint64
	AckTimeouts   uint64 // ACK waits that expired
	AcksSent      uint64
	AcksReceived  uint64
	VpktsSent     uint64 // virtual packets put on the air, retransmission rounds included
	Defers        uint64 // virtual packets deferred by the conflict map
	Backoffs      uint64 // nonzero loss-driven backoff waits taken
	RetxTimeouts  uint64 // window-full retransmission timeouts (§3.3)
	HeadersHeard  uint64 // overheard headers, any destination
	TrailersHeard uint64
	ListsSent     uint64 // interferer-list broadcasts put on the air (§3.1)
	ListsHeard    uint64
	ListsRelayed  uint64 // two-hop relays of other receivers' lists (§3.1)
	RtsSent       uint64 // RTS handshakes initiated
	CtsSent       uint64 // CTS responses put on the air
	CtsTimeouts   uint64 // RTS attempts that drew no CTS
	// DeferEntries and InterfererEntries are the live sizes of the
	// conflict map's two tables, filled in by Node.Counters.
	DeferEntries      uint64 `json:",omitempty"`
	InterfererEntries uint64 `json:",omitempty"`
}

// Checkpointer is the checkpoint surface of a MAC station: the
// checkpoint.Component that traffic sources and the mobility manager
// implement too. It is not part of Node, so an arm can register before
// it can checkpoint; a run of it then fails to checkpoint with an error.
type Checkpointer = checkpoint.Component

// Visibility is the optional receiver-side per-flow visibility surface
// of CMAP-family stations (Figures 16 and 19); the matching sender-side
// count is Counters.VpktsSent. Arms without virtual-packet structure
// simply do not implement it.
type Visibility interface {
	// FlowCounters reports, for the flow from src, how many virtual
	// packets the receiver saw at all, saw a header for, and saw a
	// header or trailer for.
	FlowCounters(src int) (seen, header, headerOrTrailer uint64)
}

// Arm is one registered MAC protocol variant. Its Name is the registry
// key (what -arm= flags accept), Label the paper-figure legend string,
// and SeedSalt the per-arm term mixed into every trial seed — pinned
// per arm so golden traces survive registry refactors.
type Arm interface {
	Name() string
	Label() string
	SeedSalt() uint64
	// New constructs the arm's station on node id of the medium, which
	// supplies the node's radio and the scheduler driving it. The node's
	// randomness must come only from rng; construction must not touch
	// any other stream so trials stay bit-reproducible.
	New(id int, m *medium.Medium, rng *sim.RNG, opt Options) Node
}

// family is a parameterized arm namespace such as "cs@<dBm>": any name
// beginning with the prefix is constructed on first lookup.
type family struct {
	prefix string
	hint   string // e.g. "cs@<dBm>", for error messages and listings
	parse  func(name string) (Arm, error)
}

var (
	regMu    sync.RWMutex
	concrete = map[string]Arm{}
	cache    = map[string]Arm{} // memoized family instances
	families []family
)

// Register adds a fixed-name arm. Registering a duplicate or empty name
// panics: arm names are program identity, not runtime data.
func Register(a Arm) {
	regMu.Lock()
	defer regMu.Unlock()
	name := a.Name()
	if name == "" {
		panic("mac: Register with empty arm name")
	}
	if _, dup := concrete[name]; dup {
		panic("mac: duplicate arm " + name)
	}
	concrete[name] = a
}

// RegisterFamily adds a parameterized arm namespace: every name
// starting with prefix resolves through parse, and hint ("cs@<dBm>")
// documents the syntax in listings and errors.
func RegisterFamily(prefix, hint string, parse func(name string) (Arm, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if prefix == "" {
		panic("mac: RegisterFamily with empty prefix")
	}
	for _, f := range families {
		if f.prefix == prefix {
			panic("mac: duplicate arm family " + prefix)
		}
	}
	families = append(families, family{prefix: prefix, hint: hint, parse: parse})
}

// Lookup resolves an arm name — a fixed name or a family instance like
// "cs@-82" or "cmap:win=2" — or returns an error naming every registered
// choice. Spellings of one canonical spec resolve to one Arm value, and
// a spelling already seen resolves without allocating.
func Lookup(name string) (Arm, error) {
	regMu.RLock()
	if a, ok := concrete[name]; ok {
		regMu.RUnlock()
		return a, nil
	}
	if a, ok := cache[name]; ok {
		regMu.RUnlock()
		return a, nil
	}
	fams := families
	regMu.RUnlock()
	for _, f := range fams {
		if !strings.HasPrefix(name, f.prefix) {
			continue
		}
		a, err := f.parse(name)
		if err != nil {
			return nil, err
		}
		regMu.Lock()
		if prev, ok := cache[a.Name()]; ok {
			a = prev
		} else {
			cache[a.Name()] = a
		}
		cache[name] = a
		regMu.Unlock()
		return a, nil
	}
	return nil, fmt.Errorf("mac: unknown arm %q (known: %s)", name, strings.Join(Names(), ", "))
}

// MustLookup is Lookup for names already validated upstream.
func MustLookup(name string) Arm {
	a, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns every registered fixed arm name in sorted order,
// followed by the family syntaxes (e.g. "cs@<dBm>").
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(concrete)+len(families))
	for name := range concrete {
		out = append(out, name)
	}
	sort.Strings(out)
	for _, f := range families {
		out = append(out, f.hint)
	}
	return out
}

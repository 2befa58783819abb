package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// FlightRecorder is a fixed-size, lock-free, allocation-free ring of binary
// event records — the per-node "black box" behind the /flightrec admin
// endpoint. The data plane writes one record per noteworthy event (forward,
// each drop kind, FIB swap, LSA apply, resync, reconcile) from the transport
// receive goroutine, so the write path must cost near-nothing and may never
// block or allocate:
//
//   - a writer claims a slot with one atomic add on the cursor and then
//     publishes through a per-slot seqlock: it zeroes the slot's mark,
//     stores the five payload words, and stores the ticket as the mark
//     last (all atomic stores, no fences beyond what atomics provide);
//   - a reader (Snapshot) loads the mark before and after copying the
//     payload and discards the record if they disagree or are zero — a
//     torn record (writer lapped the reader mid-copy) is skipped, never
//     surfaced. With a ring sized well above the burst rate this loses
//     at most the handful of records being overwritten during the copy.
//
// The zero-size recorder and the nil recorder are both valid and record
// nothing, so call sites need no guards beyond the nil-receiver check
// Record itself performs.
type FlightRecorder struct {
	cursor atomic.Uint64
	mask   uint64
	slots  []flightSlot

	// lastAnomaly packs the most recent anomalous record (drop kinds,
	// resync fire, reconcile, rejoin) for the health surface: kind in the
	// low byte, the record's Unix-microsecond timestamp shifted left 8
	// (51 bits of time — UnixNano would overflow the word). One word so
	// readers never see a kind/time pair from two different records.
	lastAnomaly atomic.Uint64
}

// flightSlot is one ring entry: a seqlock mark (the claiming ticket; 0
// while the slot is empty or mid-write) plus five payload words.
type flightSlot struct {
	mark atomic.Uint64
	at   atomic.Int64  // UnixNano
	meta atomic.Uint64 // kind | conn<<8
	src  atomic.Uint64 // originating switch
	seq  atomic.Uint64 // per-source sequence
	arg  atomic.Uint64 // kind-specific (arrival switch, batch size, ...)
}

// RecKind is the flight-record taxonomy. Values are wire/format stable
// within a build but not across builds — records decode through the same
// binary, never from disk.
type RecKind uint8

const (
	// RecNone is the zero kind; it never appears in a valid record.
	RecNone RecKind = iota
	// RecOriginate: this switch sent a payload into the network.
	RecOriginate
	// RecForward: this switch relayed a payload (arg = arrival switch).
	RecForward
	// RecDeliver: payload handed to the local application.
	RecDeliver
	// RecDropNoEntry: payload for a connection with no FIB entry.
	RecDropNoEntry
	// RecDropNoRoute: payload stranded off-tree with no contact route.
	RecDropNoRoute
	// RecDropHops: payload exhausted its hop budget.
	RecDropHops
	// RecDropLoop: own payload looped back to its origin.
	RecDropLoop
	// RecFIBSwap: a recompiled forwarding table was swapped in (seq =
	// swaps since boot, arg = entry count).
	RecFIBSwap
	// RecLSAApply: a batch of LSAs entered the machine (arg = batch size).
	RecLSAApply
	// RecResyncFired: the gap-resync timer fired for a connection.
	RecResyncFired
	// RecReconcile: partition-heal reconciliation ran (arg = links healed).
	RecReconcile
	// RecRejoin: cold rejoin-from-neighbors ran after a crash restart.
	RecRejoin

	recKindCount
)

var recKindNames = [recKindCount]string{
	RecNone:        "none",
	RecOriginate:   "originate",
	RecForward:     "forward",
	RecDeliver:     "deliver",
	RecDropNoEntry: "drop-no-entry",
	RecDropNoRoute: "drop-no-route",
	RecDropHops:    "drop-hops",
	RecDropLoop:    "drop-loop",
	RecFIBSwap:     "fib-swap",
	RecLSAApply:    "lsa-apply",
	RecResyncFired: "resync-fired",
	RecReconcile:   "reconcile",
	RecRejoin:      "rejoin",
}

// String returns the stable text name used in JSON dumps and dgmctop.
func (k RecKind) String() string {
	if k < recKindCount {
		return recKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Anomaly reports whether this kind should trip the health surface's
// "last anomaly" flag: every drop, plus the recovery machinery firing.
func (k RecKind) Anomaly() bool {
	switch k {
	case RecDropNoEntry, RecDropNoRoute, RecDropHops, RecDropLoop,
		RecResyncFired, RecReconcile, RecRejoin:
		return true
	}
	return false
}

// MarshalJSON renders the kind as its string name.
func (k RecKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the string names String produces (for reconstructors
// reading /flightrec dumps).
func (k *RecKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range recKindNames {
		if name == s {
			*k = RecKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown record kind %q", s)
}

// FlightRecord is one decoded ring entry.
type FlightRecord struct {
	// Ticket is the record's global write order on its node (1-based,
	// monotonic). Snapshot returns records sorted by it.
	Ticket uint64 `json:"ticket"`
	// AtNS is the record's wall-clock timestamp (UnixNano).
	AtNS int64 `json:"at_ns"`
	// Kind is the event taxonomy entry.
	Kind RecKind `json:"kind"`
	// Conn is the connection the event belongs to (0 when not applicable).
	Conn uint32 `json:"conn"`
	// Src is the originating switch of the packet, or the local switch for
	// control-plane records.
	Src uint32 `json:"src"`
	// Seq is the packet's per-source data sequence, or a kind-specific
	// counter for control-plane records.
	Seq uint64 `json:"seq"`
	// Arg is kind-specific: the arrival switch for forward/deliver/drop
	// records, the entry count for FIB swaps, the batch size for LSA
	// applies.
	Arg uint64 `json:"arg"`
}

// NewFlightRecorder builds a recorder holding the next power of two at or
// above size records (minimum 16). Size <= 0 returns nil — the disabled
// recorder, on which Record is a single branch.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]flightSlot, n)}
}

// Cap returns the ring capacity (0 for the nil recorder).
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record appends one event. Safe for any number of concurrent writers, safe
// on a nil receiver, lock-free, and allocation-free — it is called from the
// forward path with the packet in flight.
func (r *FlightRecorder) Record(kind RecKind, conn uint32, src uint32, seq, arg uint64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	t := r.cursor.Add(1)
	s := &r.slots[(t-1)&r.mask]
	s.mark.Store(0)
	s.at.Store(now)
	s.meta.Store(uint64(kind) | uint64(conn)<<8)
	s.src.Store(uint64(src))
	s.seq.Store(seq)
	s.arg.Store(arg)
	s.mark.Store(t)
	if kind.Anomaly() {
		r.lastAnomaly.Store(uint64(kind) | uint64(now/1000)<<8)
	}
}

// Written returns the total number of records ever written (the ring keeps
// only the last Cap of them).
func (r *FlightRecorder) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// LastAnomaly returns the kind and timestamp of the most recent anomalous
// record, or (RecNone, zero time) if none has occurred.
func (r *FlightRecorder) LastAnomaly() (RecKind, time.Time) {
	if r == nil {
		return RecNone, time.Time{}
	}
	v := r.lastAnomaly.Load()
	if v == 0 {
		return RecNone, time.Time{}
	}
	return RecKind(v & 0xff), time.Unix(0, int64(v>>8)*1000)
}

// Snapshot decodes the ring's current contents, oldest first. Records being
// overwritten during the scan are skipped (seqlock mismatch), so a snapshot
// taken under live write load returns a consistent — if slightly shorter —
// tail. The result is freshly allocated; Snapshot never runs on the hot
// path.
func (r *FlightRecorder) Snapshot() []FlightRecord {
	if r == nil {
		return nil
	}
	out := make([]FlightRecord, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		m1 := s.mark.Load()
		if m1 == 0 {
			continue
		}
		rec := FlightRecord{
			Ticket: m1,
			AtNS:   s.at.Load(),
			Seq:    s.seq.Load(),
			Arg:    s.arg.Load(),
			Src:    uint32(s.src.Load()),
		}
		meta := s.meta.Load()
		if s.mark.Load() != m1 {
			continue // torn: a writer claimed the slot mid-copy
		}
		rec.Kind = RecKind(meta & 0xff)
		rec.Conn = uint32(meta >> 8)
		if rec.Kind == RecNone || rec.Kind >= recKindCount {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ticket < out[j].Ticket })
	return out
}

// Sampled is the protocol-wide sampling decision: a packet is traced iff
// its per-source data sequence is a multiple of every. Because the decision
// is a pure function of the sequence number already carried in every data
// frame, each hop makes it independently with no extra wire bits, and the
// same 1-in-N subset is chosen at the origin, every relay, and every sink —
// which is what lets the offline reconstructor join per-hop records into
// complete paths. every <= 0 disables sampling.
func Sampled(seq uint64, every int) bool {
	return every > 0 && seq%uint64(every) == 0
}

// FlightDoc is the JSON document served by /flightrec: the node's identity
// plus decoded snapshots of its two rings — control/data events, and the
// sampled per-hop packet trace records kept in a separate ring so bursts of
// ordinary events cannot evict the sparse sampled-path evidence.
type FlightDoc struct {
	Switch  uint32         `json:"switch"`
	Cap     int            `json:"cap"`
	Written uint64         `json:"written"`
	Events  []FlightRecord `json:"events"`
	Hops    []FlightRecord `json:"hops"`
}

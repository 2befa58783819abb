package core

import (
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// connState is one switch's protocol state for one multipoint connection:
// the member list, the three vector timestamps, the installed topology, and
// the shared makeProposal flag (paper §3.2–3.3).
type connState struct {
	id   lsa.ConnID
	kind mctree.Kind

	// The three flags share one word with id and kind; spread out, each
	// would take a word of its own and push the struct past its 320-byte
	// size class.

	// makeProposal is the flag shared between EventHandler and ReceiveLSA:
	// true when this switch owes the network a topology proposal.
	makeProposal bool

	// dormant marks state for a connection whose member list has emptied
	// (§3.4 "destroyed"). The heavy state (members, topology) is gone, but
	// the event counters persist — like OSPF LSA sequence numbers — so
	// that LSAs still in flight when the last member left cannot be
	// mistaken for a fresh incarnation of the connection. A new event
	// resurrects the state.
	dormant bool

	// logShared marks logArena's array as shared with a clone (clone.go):
	// both sides may append past their own length, but neither may
	// rewrite what the other sees, so the next trim starts a new array
	// instead of compacting in place.
	logShared bool

	// logDepth is how many records logArena holds.
	logDepth uint16

	members mctree.Members

	r, e, c stamp.Stamp

	// topology is the currently installed MC topology (nil before the
	// first accepted proposal).
	topology *mctree.Tree

	// installs counts accepted/installed topologies (for convergence
	// bookkeeping and metrics).
	installs uint64

	// logArena is the replay log: the most recently applied event LSAs in
	// application order, as compact self-delimiting records back to back
	// (eventlog.go), so this switch can replay missed events to a
	// resyncing neighbor (the OSPF database-exchange analogue). A record
	// leads with its origin, and its stamp and proposal are differences
	// from the previous record's; walking back from logLast and logTip
	// rebuilds each record's per-origin index — switch x's i-th event has
	// idx i — which is how resync responses are filtered. It is a bounded
	// suffix of history: logEvent is its only writer and trimLog its only
	// trimmer. Like the counters, the log survives dormancy.
	logArena []byte

	// logLast is the stamp of the newest event ever logged, and logTip
	// the newest proposal (the logged LSA's own tree, never modified) —
	// the points every record's stamp and proposal are rebuilt from. Both
	// outlive the entry itself.
	logLast stamp.Stamp
	logTip  *mctree.Tree

	// logFloor[x] is the index of origin x's newest event that is NOT in
	// the log any more — trimmed away, or skipped by a catch-up. Every
	// event of x in (logFloor[x], r[x]] is retained; a neighbor missing
	// anything at or below the floor is served a catch-up for x instead
	// (serveResync).
	logFloor stamp.Stamp

	// ooo buffers event LSAs that arrived ahead of per-origin order (the
	// i+2nd event before the i+1st — possible once retransmission or
	// injected jitter reorders deliveries). Keyed by origin, then by the
	// event's per-origin index. oooCount mirrors the total buffered.
	ooo      map[topo.SwitchID]map[uint32]*lsa.MC
	oooCount int

	// Resync state: whether a gap-check timer is armed, how many resync
	// requests this incarnation of the gap has issued, and the rotation
	// cursor over neighbors.
	resyncScheduled bool
	resyncRounds    int
	resyncNext      int

	// Give-up signature: the (R, E, ooo depth) recorded when this gap
	// exhausted its round budget. While the signature still matches the
	// live state the give-up is terminal; any deviation is new evidence
	// (a replay landed, a flood arrived, a partition healed) and re-arms
	// recovery with a fresh round budget.
	gaveUpR   stamp.Stamp
	gaveUpE   stamp.Stamp
	gaveUpOOO int
}

func newConnState(id lsa.ConnID, kind mctree.Kind, n int) *connState {
	return &connState{
		id:       id,
		kind:     kind,
		members:  make(mctree.Members),
		r:        stamp.New(n),
		e:        stamp.New(n),
		c:        stamp.New(n),
		logFloor: stamp.New(n),
		logLast:  stamp.New(n),
	}
}

// gapped reports whether this switch knows it is missing LSAs for the
// connection: expectations exceed receipts, or events are buffered out of
// order (direct evidence that the intervening ones were lost or delayed),
// or — on a live connection — the committed stamp trails the received one,
// which after a timeout means the accepted proposal's flood was lost.
func (cs *connState) gapped() bool {
	if cs.oooCount > 0 || !cs.r.Geq(cs.e) {
		return true
	}
	return !cs.dormant && cs.r.Greater(cs.c)
}

// buffer stashes an out-of-order event LSA for later application; it
// reports whether the LSA was newly buffered.
func (cs *connState) buffer(m *lsa.MC) bool {
	src := m.Src
	idx := m.Stamp[int(src)]
	if cs.ooo == nil {
		cs.ooo = make(map[topo.SwitchID]map[uint32]*lsa.MC)
	}
	if cs.ooo[src] == nil {
		cs.ooo[src] = make(map[uint32]*lsa.MC)
	}
	if _, dup := cs.ooo[src][idx]; dup {
		return false
	}
	cs.ooo[src][idx] = m
	cs.oooCount++
	return true
}

// purgeBuffered discards src's buffered events with index at or below
// upTo (a catch-up superseded them).
func (cs *connState) purgeBuffered(src topo.SwitchID, upTo uint32) {
	for idx := range cs.ooo[src] {
		if idx <= upTo {
			delete(cs.ooo[src], idx)
			cs.oooCount--
		}
	}
}

// takeBuffered removes and returns the buffered event with the given
// per-origin index, if present.
func (cs *connState) takeBuffered(src topo.SwitchID, idx uint32) (*lsa.MC, bool) {
	m, ok := cs.ooo[src][idx]
	if !ok {
		return nil, false
	}
	delete(cs.ooo[src], idx)
	cs.oooCount--
	return m, true
}

// applyMembership updates the member list for an event LSA from src.
// Link events do not change membership (Figure 5 line 8); a catch-up sets
// src's entry to where its skipped events led.
func (cs *connState) applyMembership(event lsa.Event, src int, role mctree.Role) {
	switch event {
	case lsa.Join:
		cs.members[switchID(src)] = role
	case lsa.Leave:
		delete(cs.members, switchID(src))
	case lsa.CatchUp:
		if role != 0 {
			cs.members[switchID(src)] = role
		} else {
			delete(cs.members, switchID(src))
		}
	}
}

// Snapshot is a read-only copy of a connection's state, for inspection by
// tests, metrics, and tools.
type Snapshot struct {
	Conn     lsa.ConnID
	Kind     mctree.Kind
	Members  mctree.Members
	R, E, C  stamp.Stamp
	Topology *mctree.Tree
	Installs uint64
}

func (cs *connState) snapshot() Snapshot {
	var topoCopy *mctree.Tree
	if cs.topology != nil {
		topoCopy = cs.topology.Clone()
	}
	return Snapshot{
		Conn:     cs.id,
		Kind:     cs.kind,
		Members:  cs.members.Clone(),
		R:        cs.r.Clone(),
		E:        cs.e.Clone(),
		C:        cs.c.Clone(),
		Topology: topoCopy,
		Installs: cs.installs,
	}
}

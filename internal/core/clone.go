package core

import (
	"encoding/binary"
	"sort"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// This file is the deterministic clone/encode API that implementation-level
// model checking (internal/explore) is built on: CloneWith branches a
// machine's complete protocol state at a schedule choice point, and
// AppendState writes a canonical byte encoding of everything that affects
// the machine's future behavior, so two interleavings that reach the same
// protocol state hash equal and the explorer can deduplicate them.

// CloneWith returns a deep copy of the machine bound to host. The copy
// shares nothing mutable with the original: the unicast image, every
// connection's timestamps, member list, out-of-order buffer, and replay log
// are copied. Immutable values — installed topologies, logged LSAs, the
// algorithm, the kind table — are shared by pointer, matching the
// protocol's own treatment of them (a flooded LSA or installed tree is
// never modified in place). Metrics are copied by value so the clone
// counts independently.
func (m *Machine) CloneWith(host Host) *Machine {
	metrics := *m.metrics
	c := &Machine{
		id:        m.id,
		host:      host,
		uni:       m.uni.Clone(),
		conns:     make(map[lsa.ConnID]*connState, len(m.conns)),
		n:         m.n,
		alg:       m.alg,
		kinds:     m.kinds,
		reopt:     m.reopt,
		resync:    m.resync,
		resyncMax: m.resyncMax,
		metrics:   &metrics,
		mutation:  m.mutation,
		// Pending computations are never written after their begin.
		computing: m.computing,
		local:     m.local,
		batch:     m.batch,
	}
	for id, cs := range m.conns {
		c.conns[id] = cs.clone()
	}
	return c
}

// clone returns a deep copy of the connection state. Buffered LSAs and
// the installed topology are shared by pointer (immutable by protocol
// convention), and the replay log's arena and index by array.
func (cs *connState) clone() *connState {
	c := &connState{
		id:              cs.id,
		kind:            cs.kind,
		members:         cs.members.Clone(),
		r:               cs.r.Clone(),
		e:               cs.e.Clone(),
		c:               cs.c.Clone(),
		logFloor:        cs.logFloor.Clone(),
		logLast:         cs.logLast.Clone(),
		topology:        cs.topology,
		makeProposal:    cs.makeProposal,
		lastDelta:       cs.lastDelta,
		installs:        cs.installs,
		dormant:         cs.dormant,
		oooCount:        cs.oooCount,
		resyncScheduled: cs.resyncScheduled,
		resyncRounds:    cs.resyncRounds,
		resyncNext:      cs.resyncNext,
		gaveUpOOO:       cs.gaveUpOOO,
	}
	if cs.gaveUpR != nil {
		c.gaveUpR = cs.gaveUpR.Clone()
	}
	if cs.gaveUpE != nil {
		c.gaveUpE = cs.gaveUpE.Clone()
	}
	if n := len(cs.logIndex); n > 0 {
		// The records are immutable and the arrays are shared: capped at
		// their length, so an append on either side never writes into
		// what the other sees, and marked, so neither trims them in
		// place. The original's mark is written once, which keeps cloning
		// a clone (a snapshot restored twice) free of writes.
		c.logArena = cs.logArena[:len(cs.logArena):len(cs.logArena)]
		c.logIndex = cs.logIndex[:n:n]
		c.logShared = true
		if !cs.logShared {
			cs.logShared = true
		}
	}
	if len(cs.ooo) > 0 {
		c.ooo = make(map[topo.SwitchID]map[uint32]*lsa.MC, len(cs.ooo))
		for src, byIdx := range cs.ooo {
			inner := make(map[uint32]*lsa.MC, len(byIdx))
			for idx, msg := range byIdx {
				inner[idx] = msg
			}
			c.ooo[src] = inner
		}
	}
	return c
}

// Gapped reports whether conn has unfinished recovery work: events known
// but not received (R < E), arrivals buffered out of order, or a commit
// lagging the received events. Checkers use it to tell a repaired state
// from a silently wedged one.
func (m *Machine) Gapped(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.gapped()
}

// ResyncGaveUp reports whether conn's gap recovery exhausted its round
// budget (further arming is blocked until healthy state resets it).
func (m *Machine) ResyncGaveUp(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.resyncRounds > m.resyncMax
}

// ResyncArmed reports whether a gap-check timer is pending for conn.
func (m *Machine) ResyncArmed(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.resyncScheduled
}

// AllConnections lists every connection ID the switch holds state for,
// including dormant ones, in ascending order. Connections() hides dormant
// state on purpose; checkers need the counters that survive it.
func (m *Machine) AllConnections() []lsa.ConnID {
	return sortedConnIDs(m.conns)
}

// AppendState appends a canonical encoding of the machine's protocol state
// to buf. Everything that can influence a future transition is included:
// the unicast image and its staleness horizon, and per connection (in
// ascending ID order) the three timestamps, the member list, the flags,
// the installed topology, the incremental-update hint, the replay log and
// its per-origin floor, the out-of-order buffer, and the resync bookkeeping.
// Pending computations, with the rest of the calls they interrupted, follow
// the connections — only when there are any, so a machine with both
// entities idle encodes as it did before computations could be left
// pending. Pure counters (metrics, install counts) are excluded. Two
// machines with equal encodings are behaviorally indistinguishable, which
// is what makes the encoding a sound deduplication key for state-space
// search.
func (m *Machine) AppendState(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.id)))
	buf = m.uni.AppendState(buf)
	ids := sortedConnIDs(m.conns)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = m.conns[id].appendState(buf)
	}
	return m.appendComputing(buf)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendTree(buf []byte, t *mctree.Tree) []byte {
	// mctree's length-prefixed encoding handles nil (edge count sentinel).
	return t.AppendBinary(buf)
}

func appendMembers(buf []byte, members mctree.Members) []byte {
	mem := members.IDs()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(mem)))
	for _, s := range mem {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(s)))
		buf = append(buf, byte(members[s]))
	}
	return buf
}

func appendDelta(buf []byte, d changeHint) []byte {
	if !d.ok {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(d.change.Switch)))
	return appendBool(buf, d.change.Join)
}

func appendMC(buf []byte, msg *lsa.MC) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(msg.Src)))
	buf = append(buf, byte(msg.Event), byte(msg.Role))
	buf = binary.BigEndian.AppendUint32(buf, uint32(msg.Conn))
	buf = appendTree(buf, msg.Proposal)
	buf = msg.Stamp.AppendBinary(buf)
	return buf
}

func (cs *connState) appendState(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.id))
	buf = append(buf, byte(cs.kind))
	buf = cs.r.AppendBinary(buf)
	buf = cs.e.AppendBinary(buf)
	buf = cs.c.AppendBinary(buf)
	buf = appendMembers(buf, cs.members)
	buf = appendBool(buf, cs.makeProposal)
	buf = appendBool(buf, cs.dormant)
	buf = appendTree(buf, cs.topology)
	buf = appendDelta(buf, cs.lastDelta)
	buf = cs.appendLog(buf)
	buf = cs.logFloor.AppendBinary(buf)
	// Out-of-order buffer in (origin, index) order.
	srcs := make([]topo.SwitchID, 0, len(cs.ooo))
	for src, byIdx := range cs.ooo {
		if len(byIdx) > 0 {
			srcs = append(srcs, src)
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, src := range srcs {
		byIdx := cs.ooo[src]
		idxs := make([]uint32, 0, len(byIdx))
		for idx := range byIdx {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(idxs)))
		for _, idx := range idxs {
			buf = appendMC(buf, byIdx[idx])
		}
	}
	buf = appendBool(buf, cs.resyncScheduled)
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.resyncRounds))
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.resyncNext))
	buf = cs.gaveUpR.AppendBinary(buf)
	buf = cs.gaveUpE.AppendBinary(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(cs.gaveUpOOO))
	return buf
}

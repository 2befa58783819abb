package core

import (
	"encoding/binary"
	"fmt"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
)

// The paper's entities save old_R, compute for Tc, and only then ask whether
// R is still old_R (Figure 4 line 6, Figure 5 line 22): things arrive while
// a computation runs. The machine therefore never computes inside a call. A
// call that reaches a computation leaves it pending — plain data, one slot
// per entity — and returns; Complete finishes it against the state as of
// then and carries on with the interrupted call. What happens in between is
// the host's choice: the simulator schedules the completion Tc of virtual
// time later, the schedule explorer makes the completion a choice point, a
// live runtime completes at once (HandleLocalEvent and ReceiveBatch are
// that loop).

// Entity names one of a switch's two protocol entities. Each computes at
// most one topology at a time; the two run concurrently.
type Entity uint8

const (
	// EventHandler handles local events (Figure 4).
	EventHandler Entity = iota
	// ReceiveLSA consumes the receive queue (Figure 5).
	ReceiveLSA
)

// String implements fmt.Stringer.
func (e Entity) String() string {
	if e == EventHandler {
		return "event-handler"
	}
	return "receive-lsa"
}

// computeSite says which of the machine's three computations is pending.
type computeSite uint8

const (
	siteIdle     computeSite = iota
	siteEvent                // Figure 4 line 5: EventHandler's proposal
	siteReceive              // Figure 5 line 21: ReceiveLSA's triggered proposal
	siteEstimate             // §3.5: the fresh tree an installed one is weighed against
)

// computation is what an entity holds across Tc. Nothing in it is written
// after the begin, so copies of a machine share its stamps, maps and slices.
type computation struct {
	site  computeSite
	conn  lsa.ConnID
	chain ChainID
	// As of the begin: R (Figure 4 line 4, Figure 5 line 20), the member
	// list (an estimate's already restricted to the reachable) and the
	// installed tree the algorithm updates.
	oldR    stamp.Stamp
	members mctree.Members
	prev    *mctree.Tree
	// event and role are what an EventHandler proposal's LSA announces.
	event lsa.Event
	role  mctree.Role
}

// localRest is what is left of a link event when EventHandler stops at a
// computation: the affected connections still to be handled, then the
// re-optimization pass (reoptimize until it lists its connections).
type localRest struct {
	affected   []lsa.ConnID
	reoptimize bool
	estimates  []lsa.ConnID
}

// batchRest is what is left of a receive batch when ReceiveLSA stops at a
// computation: the per-connection groups still to be consumed, the marks of
// entries that arrived in a resync replay, the resync requests served last.
type batchRest struct {
	groups   []connGroup
	replayed replayMarks
	requests []*lsa.ResyncRequest
}

// replayMarks records which LSAs of a batch arrived in a resync replay, by
// encoding: every copy of one LSA shares it, so a copy that arrived by
// flood counts as replayed when the same batch replays it too. A replay
// carries copies decoded from the server's event log, never the objects a
// fabric that shares LSAs by pointer delivered, so marking by object would
// tell flood and replay copies apart only on a fabric that decodes every
// frame.
type replayMarks map[string]bool

func (r replayMarks) has(m *lsa.MC) bool {
	return r != nil && r[string(m.Marshal())]
}

// connGroup is one connection's MC LSAs of a batch, in arrival order (none
// for a bare ResyncNudge).
type connGroup struct {
	conn lsa.ConnID
	msgs []*lsa.MC
}

// Computing reports whether entity e has a topology computation pending.
func (m *Machine) Computing(e Entity) bool { return m.computing[e].site != siteIdle }

// mustBeIdle enforces the host's side of the begin/complete contract.
func (m *Machine) mustBeIdle(e Entity) {
	if m.Computing(e) {
		panic(fmt.Sprintf("core: switch %d: %s invoked while its computation is pending", m.id, e))
	}
}

// ComputingConn names the connection entity e's pending computation is for
// (meaningful only while Computing(e)).
func (m *Machine) ComputingConn(e Entity) lsa.ConnID { return m.computing[e].conn }

// Complete finishes entity e's pending computation against the machine's
// state as of now: reachability, the algorithm run, then the paper's
// question — is R still old_R (and, for ReceiveLSA, nothing queued for the
// connection)? — and flood and install, or withdraw. queued answers the
// second half: whether the switch's receive queue holds an MC LSA for
// ComputingConn(e); only a ReceiveLSA completion reads it. The interrupted
// call then carries on to its next computation or its end. It reports
// whether e has a computation pending afterwards; on an idle entity it
// reports false and changes nothing.
func (m *Machine) Complete(e Entity, queued bool) bool {
	c := m.computing[e]
	if c.site == siteIdle {
		return false
	}
	m.computing[e] = computation{}
	cs := m.conns[c.conn]
	switch c.site {
	case siteEvent:
		m.completeEvent(&c, cs)
	case siteEstimate:
		if m.completeEstimate(&c, cs) {
			return true
		}
	case siteReceive:
		m.completeReceive(&c, cs, queued)
		return m.continueBatch()
	}
	return m.continueLocal()
}

// tagComputing (+ Entity) leads a pending computation's encoding: a byte no
// machine encoding starts with and no link-state byte equals, so
// AppendState stays self-delimiting with other state following it.
const tagComputing = 0xC0

// appendComputing appends the pending computations and the calls they
// interrupted; nothing at all when both entities are idle.
func (m *Machine) appendComputing(buf []byte) []byte {
	if c := &m.computing[EventHandler]; c.site != siteIdle {
		buf = c.appendState(append(buf, tagComputing+byte(EventHandler)))
		buf = appendConnIDs(buf, m.local.affected)
		buf = appendBool(buf, m.local.reoptimize)
		buf = appendConnIDs(buf, m.local.estimates)
	}
	if c := &m.computing[ReceiveLSA]; c.site != siteIdle {
		buf = c.appendState(append(buf, tagComputing+byte(ReceiveLSA)))
		b := &m.batch
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.groups)))
		for _, g := range b.groups {
			buf = binary.BigEndian.AppendUint32(buf, uint32(g.conn))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.msgs)))
			for _, msg := range g.msgs {
				buf = appendBool(appendMC(buf, msg), b.replayed.has(msg))
			}
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.requests)))
		for _, req := range b.requests {
			enc := req.Marshal()
			buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(enc))), enc...)
		}
	}
	return buf
}

// appendState encodes everything about c that its completion reads. The
// chain is left out: it labels trace entries only.
func (c *computation) appendState(buf []byte) []byte {
	buf = append(buf, byte(c.site))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.conn))
	buf = c.oldR.AppendBinary(buf)
	buf = appendMembers(buf, c.members)
	buf = appendTree(buf, c.prev)
	return append(buf, byte(c.event), byte(c.role))
}

func appendConnIDs(buf []byte, ids []lsa.ConnID) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

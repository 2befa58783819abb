package core

import "dgmc/internal/lsa"

// Checker predicate hooks: read-only probes into per-connection protocol
// state that guided schedule search (internal/explore) uses to
// rank world states by near-violation signals — a switch owing a proposal
// with nothing in flight to trigger it, recovery machinery armed or
// exhausted, events buffered out of order. They expose no state a Snapshot
// does not already imply; they exist so the explorer can score millions of
// states without allocating snapshots.

// ProposalOwed reports whether conn's shared makeProposal flag is set:
// this switch owes the network a topology proposal it has not yet computed
// and flooded.
func (m *Machine) ProposalOwed(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.makeProposal
}

// ResyncArmed reports whether a gap-check timer is pending for conn.
func (m *Machine) ResyncArmed(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.resyncScheduled
}

// OutOfOrderDepth returns the number of event LSAs buffered out of
// per-origin order for conn.
func (m *Machine) OutOfOrderDepth(conn lsa.ConnID) int {
	cs, ok := m.conns[conn]
	if !ok {
		return 0
	}
	return cs.oooCount
}

// Dormant reports whether conn's member list has emptied (§3.4
// "destroyed"): counters persist but there is no live state to converge.
func (m *Machine) Dormant(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && cs.dormant
}

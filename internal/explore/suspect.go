package explore

import (
	"fmt"
	"sort"
	"strings"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// Suspect states are the pivot of fault-oriented search (Helmy et al.,
// "Systematic Testing of Multicast Routing Protocols"): instead of asking
// "does any reachable state violate an invariant?" — which blind BFS can
// only answer near the root of a multi-event state space — ask "which
// reachable states *look like* the precursor of a violation?", minimize
// the schedules that reach them, and search outward from there. A suspect
// is not a bug: every kind below occurs transiently in correct runs. What
// makes it worth chasing is that every known violation class passes
// through one of them on its way to a bad quiescent state.

// SuspectKind classifies a stamp-invariant near-violation.
type SuspectKind uint8

const (
	// SuspectREDivergence: some switch's R trails its E — it knows events
	// exist that it has not received. The precursor of every lost-flood
	// and wedged-recovery violation.
	SuspectREDivergence SuspectKind = iota
	// SuspectCommitLag: R has caught up with E but C trails R on a live
	// connection — events all arrived, the proposal that should cover
	// them did not. The precursor of proposal-loss divergence.
	SuspectCommitLag
	// SuspectCommitAhead: C exceeds R with nothing buffered out of order.
	// Legitimate only while the covering flood is still in flight; a
	// committed stamp acquired any other way (e.g. an overstamped
	// pseudo-proposal) looks exactly like this.
	SuspectCommitAhead
	// SuspectOrphanedProposal: a switch owes the network a proposal
	// (makeProposal set) but nothing is pending to it and no gap-check
	// timer is armed — no future delivery or firing will trigger the
	// recompute. The precursor of silent-wedge violations.
	SuspectOrphanedProposal
	// SuspectSettledDivergence: two switches settled at identical R and C
	// disagree on the member list or installed topology. One delivery
	// away from a quiescent agreement violation.
	SuspectSettledDivergence
	// SuspectHealResidue: the fault lane has completed (every split
	// healed, every crash restarted) but some connection is still gapped.
	// Correct recovery drains this; residue that persists is how heals
	// fail.
	SuspectHealResidue
	numSuspectKinds
)

// suspectWeights scores each kind by how directly it precedes a violation
// (used by the guided frontier ranking and backward suspect harvest).
var suspectWeights = [numSuspectKinds]int{
	SuspectREDivergence:      1,
	SuspectCommitLag:         3,
	SuspectCommitAhead:       4,
	SuspectOrphanedProposal:  6,
	SuspectSettledDivergence: 10,
	SuspectHealResidue:       4,
}

// String implements fmt.Stringer.
func (k SuspectKind) String() string {
	switch k {
	case SuspectREDivergence:
		return "re-divergence"
	case SuspectCommitLag:
		return "commit-lag"
	case SuspectCommitAhead:
		return "commit-ahead"
	case SuspectOrphanedProposal:
		return "orphaned-proposal"
	case SuspectSettledDivergence:
		return "settled-divergence"
	case SuspectHealResidue:
		return "heal-residue"
	default:
		return fmt.Sprintf("suspect(%d)", uint8(k))
	}
}

// AllSuspectKinds lists every defined kind in declaration order.
func AllSuspectKinds() []SuspectKind {
	out := make([]SuspectKind, numSuspectKinds)
	for i := range out {
		out[i] = SuspectKind(i)
	}
	return out
}

// ParseSuspectKinds parses a comma-separated list of kind names, or "all".
func ParseSuspectKinds(s string) ([]SuspectKind, error) {
	if strings.TrimSpace(s) == "all" {
		return AllSuspectKinds(), nil
	}
	var out []SuspectKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for _, k := range AllSuspectKinds() {
			if k.String() == part {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("explore: unknown suspect kind %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: empty suspect kind list")
	}
	return out, nil
}

// suspectCounts tallies suspect instances per kind at one world state.
type suspectCounts [numSuspectKinds]int

// score returns the weighted suspicion total.
func (sc *suspectCounts) score() int {
	total := 0
	for k, n := range sc {
		total += suspectWeights[k] * n
	}
	return total
}

// any reports whether at least one of the given kinds is present (all
// kinds when the filter is empty).
func (sc *suspectCounts) any(kinds []SuspectKind) bool {
	if len(kinds) == 0 {
		for _, n := range sc {
			if n > 0 {
				return true
			}
		}
		return false
	}
	for _, k := range kinds {
		if sc[k] > 0 {
			return true
		}
	}
	return false
}

// covers reports whether sc exhibits every kind present in want — the
// predicate backward search preserves while minimizing a suspect prefix.
func (sc *suspectCounts) covers(want *suspectCounts) bool {
	for k := range want {
		if want[k] > 0 && sc[k] == 0 {
			return false
		}
	}
	return true
}

// hasPendingMC reports whether an MC LSA for conn is in flight to switch s
// (pending only — parked cross-partition frames cannot fire until a heal,
// which arms reconciliation anyway).
func (w *World) hasPendingMC(s topo.SwitchID, conn lsa.ConnID) bool {
	for i := range w.pending {
		pm := &w.pending[i]
		if pm.to != s {
			continue
		}
		switch v := pm.payload.(type) {
		case *lsa.MC:
			if v.Conn == conn {
				return true
			}
		case *lsa.ResyncResponse:
			if v.Conn == conn {
				return true
			}
		case core.ResyncNudge:
			if v.Conn == conn {
				return true
			}
		}
	}
	return false
}

// suspects scans the world for stamp-invariant near-violations. Crashed
// switches hold no live state and are skipped; pairwise kinds compare all
// live switches holding state for the same connection.
func (w *World) suspects() suspectCounts {
	var sc suspectCounts
	views := make(map[lsa.ConnID][]core.Snapshot)
	for s := 0; s < w.n; s++ {
		if w.crashed[s] {
			continue
		}
		m := w.machines[s]
		for _, conn := range m.AllConnections() {
			snap, _ := m.Connection(conn)
			sw := topo.SwitchID(s)
			if !snap.R.Geq(snap.E) {
				sc[SuspectREDivergence]++
			} else if !m.Dormant(conn) && snap.R.Greater(snap.C) {
				sc[SuspectCommitLag]++
			}
			if !snap.R.Geq(snap.C) && m.OutOfOrderDepth(conn) == 0 {
				sc[SuspectCommitAhead]++
			}
			if m.ProposalOwed(conn) && !m.ResyncArmed(conn) && !w.hasPendingMC(sw, conn) {
				sc[SuspectOrphanedProposal]++
			}
			views[conn] = append(views[conn], snap)
		}
	}
	for _, conn := range sortedViewConns(views) {
		vs := views[conn]
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				a, b := &vs[i], &vs[j]
				if !a.R.Equal(b.R) || !a.C.Equal(b.C) {
					continue
				}
				if !a.Members.Equal(b.Members) ||
					(a.Topology == nil) != (b.Topology == nil) ||
					(a.Topology != nil && !a.Topology.Equal(b.Topology)) {
					sc[SuspectSettledDivergence]++
				}
			}
		}
	}
	if len(w.scn.Faults) > 0 && w.faultPos == len(w.scn.Faults) {
		for s := 0; s < w.n; s++ {
			m := w.machines[s]
			for _, conn := range m.AllConnections() {
				if m.Gapped(conn) {
					sc[SuspectHealResidue]++
				}
			}
		}
	}
	return sc
}

func sortedViewConns(views map[lsa.ConnID][]core.Snapshot) []lsa.ConnID {
	out := make([]lsa.ConnID, 0, len(views))
	for id := range views {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stampShape renders a coarse behavioral signature of the world: per
// switch and connection, the qualitative relations among R, E, and C plus
// the recovery flags, and the global fault-lane position. Two states with
// equal shapes are exploring "the same kind of situation"; novelty of the
// shape is the exploration bonus of guided search, and the set of shapes
// seen is the coverage map persisted in Stats.
func (w *World) stampShape() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "f%d", w.faultPos)
	for s := 0; s < w.n; s++ {
		if w.crashed[s] {
			sb.WriteString("|X")
			continue
		}
		m := w.machines[s]
		sb.WriteByte('|')
		for _, conn := range m.AllConnections() {
			snap, _ := m.Connection(conn)
			relRE := byte('=')
			if !snap.R.Geq(snap.E) {
				relRE = '<'
			}
			relCR := byte('=')
			switch {
			case !snap.R.Geq(snap.C):
				relCR = '>'
			case snap.R.Greater(snap.C):
				relCR = '<'
			}
			flags := byte('0')
			if m.ProposalOwed(conn) {
				flags |= 1
			}
			if m.ResyncArmed(conn) {
				flags |= 2
			}
			if m.OutOfOrderDepth(conn) > 0 {
				flags |= 4
			}
			if m.Dormant(conn) {
				flags |= 8
			}
			sb.WriteByte(relRE)
			sb.WriteByte(relCR)
			sb.WriteByte(flags)
		}
	}
	return sb.String()
}

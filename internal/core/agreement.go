package core

import (
	"fmt"
	"slices"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// View is what CheckAgreement reads of one switch. Switch, Machine and the
// live runtime's Node all provide it.
type View interface {
	// Connections lists the switch's live (non-dormant) connections.
	Connections() []lsa.ConnID
	// Connection returns a copy of the switch's state for conn, or ok=false
	// if it holds none.
	Connection(conn lsa.ConnID) (Snapshot, bool)
}

// CheckAgreement is the paper's convergence condition, the one verdict the
// simulator (Domain.CheckConverged), the model checker and the live cluster
// judge by. g is the network as the host sees it now; views[s] is switch s,
// or nil for a dead switch, which is skipped.
//
// Flooding cannot cross failed links, so the condition holds per connected
// component of g. In every component, each switch holding any connection's
// state must hold state for every connection the others hold live, with
// the same committed stamp C, the same member list and the same installed
// topology. Every largest component is also held to the strict standard:
// R = C = E at every switch, and a topology that is installed whenever two
// or more of the connection's members lie in the component and is a valid
// tree over those members. Smaller fragments (e.g. a failed switch cut off
// mid-flood) may hold legitimately stale state and are checked for
// agreement only — the paper defers partition recovery (§6).
//
// Connections are checked in ascending ID order, so the first violation is
// the same on every run. Call it only when nothing is in flight.
func CheckAgreement(g *topo.Graph, views []View) error {
	// comp[s] is 1 + the index of switch s's component; 0 until visited.
	comp := make([]int, g.NumSwitches())
	var comps [][]topo.SwitchID
	largest := 0
	for s := range comp {
		if comp[s] != 0 {
			continue
		}
		c := g.Component(topo.SwitchID(s))
		comps = append(comps, c)
		for _, x := range c {
			comp[x] = len(comps)
		}
		largest = max(largest, len(c))
	}
	for i, c := range comps {
		inComp := func(s topo.SwitchID) bool { return comp[s] == i+1 }
		if err := agreeWithin(g, views, c, inComp, len(c) == largest); err != nil {
			return err
		}
	}
	return nil
}

// agreeWithin checks one component's switches (see CheckAgreement).
func agreeWithin(g *topo.Graph, views []View, comp []topo.SwitchID, inComp func(topo.SwitchID) bool, strict bool) error {
	var conns []lsa.ConnID
	for _, s := range comp {
		if v := views[s]; v != nil {
			conns = append(conns, v.Connections()...)
		}
	}
	slices.Sort(conns)
	for _, conn := range slices.Compact(conns) {
		var ref Snapshot
		refSwitch := topo.SwitchID(-1)
		for _, s := range comp {
			v := views[s]
			if v == nil {
				continue
			}
			snap, ok := v.Connection(conn)
			if !ok {
				return fmt.Errorf("switch %d has no state for conn %d", s, conn)
			}
			if strict && !settled(snap.R, snap.E, snap.C) {
				return fmt.Errorf("switch %d conn %d stamps diverge: R=%s E=%s C=%s",
					s, conn, snap.R, snap.E, snap.C)
			}
			if refSwitch < 0 {
				ref, refSwitch = snap, s
				continue
			}
			if !snap.C.Equal(ref.C) {
				return fmt.Errorf("conn %d: switch %d C=%s but switch %d C=%s",
					conn, s, snap.C, refSwitch, ref.C)
			}
			if !snap.Members.Equal(ref.Members) {
				return fmt.Errorf("conn %d: member lists diverge between switches %d and %d: %v vs %v",
					conn, s, refSwitch, snap.Members, ref.Members)
			}
			if (snap.Topology == nil) != (ref.Topology == nil) ||
				(snap.Topology != nil && !snap.Topology.Equal(ref.Topology)) {
				return fmt.Errorf("conn %d: topologies diverge between switches %d and %d: %v vs %v",
					conn, s, refSwitch, snap.Topology, ref.Topology)
			}
		}
		if !strict || refSwitch < 0 {
			continue
		}
		// The topology serves the members this component can reach.
		local := make(mctree.Members, len(ref.Members))
		for m, role := range ref.Members {
			if inComp(m) {
				local[m] = role
			}
		}
		if ref.Topology == nil {
			if len(local) >= 2 {
				return fmt.Errorf("conn %d: %d members but no installed topology", conn, len(local))
			}
			continue
		}
		if err := ref.Topology.Validate(g, local); err != nil {
			return fmt.Errorf("conn %d: converged topology invalid: %w", conn, err)
		}
	}
	return nil
}

// settled is the per-switch half of agreement: everything received has
// been committed and nothing more is expected (R = C = E).
func settled(r, e, c stamp.Stamp) bool { return r.Equal(c) && r.Equal(e) }

// Settled reports whether this switch holds conn, has committed everything
// it received, and is not gapped: R = C = E with nothing buffered out of
// order. It is the per-switch half of CheckAgreement, and reads the
// connection in place instead of copying a Snapshot.
func (m *Machine) Settled(conn lsa.ConnID) bool {
	cs, ok := m.conns[conn]
	return ok && settled(cs.r, cs.e, cs.c) && cs.oooCount == 0
}

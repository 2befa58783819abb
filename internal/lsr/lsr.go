// Package lsr implements the unicast link-state routing substrate that the
// D-GMC protocol layers on (paper §1): every switch maintains a complete
// local image of the network, learned through flooded link-state
// advertisements, and computes unicast routing tables locally — the OSPF
// working principle.
//
// The MC protocol reuses three things from this substrate: the local
// network image (as input to topology computation), the flooding service,
// and the origination of non-MC LSAs when link/nodal events are detected.
package lsr

import (
	"fmt"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// Instance is a single switch's link-state routing state: its local image
// of the network and the unicast routing table derived from it.
type Instance struct {
	self  topo.SwitchID
	image *topo.Graph
	// imageShared marks image as shared with a clone (clone.go): the next
	// link change copies it first.
	imageShared bool
	nextHop     []topo.SwitchID
	version     uint64
	// mySeq numbers this switch's own advertisements; seen tracks the
	// highest sequence number accepted per originator (OSPF-style
	// staleness protection).
	mySeq uint32
	seen  map[topo.SwitchID]uint32
}

// NewInstance creates switch self's LSR instance with an initial network
// image cloned from base (the configured topology; in a real deployment
// this is learned by initial flooding, which the simulation elides).
func NewInstance(self topo.SwitchID, base *topo.Graph) (*Instance, error) {
	if self < 0 || int(self) >= base.NumSwitches() {
		return nil, fmt.Errorf("lsr: switch %d out of range [0,%d)", self, base.NumSwitches())
	}
	i := &Instance{self: self, image: base.Clone(), seen: make(map[topo.SwitchID]uint32)}
	i.recompute()
	return i, nil
}

// Self returns the switch this instance runs on.
func (i *Instance) Self() topo.SwitchID { return i.self }

// Image returns the switch's local image of the network. Callers must
// treat it as read-only; it is shared with the MC protocol's topology
// computations.
func (i *Instance) Image() *topo.Graph { return i.image }

// Version counts applied topology changes; it increments whenever an LSA
// changes the local image.
func (i *Instance) Version() uint64 { return i.version }

// HandleLSA applies a non-MC LSA to the local image, recomputing the
// routing table if the image changed. It returns whether the image changed.
// Sequenced advertisements (Seq > 0) older than or equal to the newest
// accepted from the same originator are discarded, so duplicated or
// reordered delivery cannot regress the image (as in OSPF); unsequenced
// advertisements (Seq == 0) are applied idempotently.
func (i *Instance) HandleLSA(nm *lsa.NonMC) (changed bool, err error) {
	if nm == nil {
		return false, fmt.Errorf("lsr: nil LSA")
	}
	l, ok := i.image.Link(nm.Change.A, nm.Change.B)
	if !ok {
		return false, fmt.Errorf("lsr: LSA for unknown link (%d,%d)", nm.Change.A, nm.Change.B)
	}
	if nm.Seq > 0 {
		if nm.Seq <= i.seen[nm.Src] {
			return false, nil // stale or duplicate
		}
		i.seen[nm.Src] = nm.Seq
	}
	if l.Down == nm.Change.Down {
		return false, nil
	}
	if i.imageShared {
		i.image, i.imageShared = i.image.Clone(), false
	}
	if err := i.image.SetLinkDown(nm.Change.A, nm.Change.B, nm.Change.Down); err != nil {
		return false, err
	}
	i.version++
	i.recompute()
	return true, nil
}

// ApplyLocalEvent records a link event detected at this switch itself
// (before flooding it) and returns the sequenced LSA to flood.
func (i *Instance) ApplyLocalEvent(change lsa.LinkChange) (*lsa.NonMC, error) {
	i.mySeq++
	nm := &lsa.NonMC{Src: i.self, Seq: i.mySeq, Change: change}
	if _, err := i.HandleLSA(nm); err != nil {
		i.mySeq--
		return nil, err
	}
	return nm, nil
}

// NextHop returns the neighbor to forward to for destination dst, or
// (NoSwitch, false) when dst is unreachable. NextHop for self is self.
func (i *Instance) NextHop(dst topo.SwitchID) (topo.SwitchID, bool) {
	if dst < 0 || int(dst) >= len(i.nextHop) {
		return topo.NoSwitch, false
	}
	nh := i.nextHop[dst]
	return nh, nh != topo.NoSwitch
}

// recompute rebuilds the unicast routing table from the local image.
func (i *Instance) recompute() {
	n := i.image.NumSwitches()
	i.nextHop = make([]topo.SwitchID, n)
	spt := i.image.ShortestPaths(i.self)
	for d := 0; d < n; d++ {
		dst := topo.SwitchID(d)
		if dst == i.self {
			i.nextHop[d] = i.self
			continue
		}
		path := spt.Path(dst)
		if len(path) < 2 {
			i.nextHop[d] = topo.NoSwitch
			continue
		}
		i.nextHop[d] = path[1]
	}
}

// Route traces the unicast path from this switch to dst through a set of
// instances (indexed by switch ID), following each hop's own table — the
// way a real packet would be forwarded. It errors on loops or blackholes.
func Route(instances []*Instance, from, dst topo.SwitchID) ([]topo.SwitchID, error) {
	if int(from) >= len(instances) || int(dst) >= len(instances) || from < 0 || dst < 0 {
		return nil, fmt.Errorf("lsr: route endpoints (%d,%d) out of range", from, dst)
	}
	path := []topo.SwitchID{from}
	cur := from
	for cur != dst {
		nh, ok := instances[cur].NextHop(dst)
		if !ok {
			return nil, fmt.Errorf("lsr: no route from %d to %d at switch %d", from, dst, cur)
		}
		cur = nh
		path = append(path, cur)
		if len(path) > len(instances)+1 {
			return nil, fmt.Errorf("lsr: routing loop from %d to %d: %v", from, dst, path)
		}
	}
	return path, nil
}

// Package fib is the per-switch forwarding information base of the data
// plane: a compiled, read-only view of every installed MC topology that the
// live runtime's forward path consults on each payload frame. The control
// plane (core.Machine via the Host.ForwardingChanged hook) recompiles the
// entries of the connections whose topology was installed or withdrawn — or
// the whole table when the unicast image changes — and swaps the new table
// in atomically: forwarding never observes a half-updated tree.
//
// One entry per live connection, compiled from (kind, members, tree) plus
// the switch's link-state image:
//
//   - symmetric: on-tree switches fan out to their tree neighbors; members
//     may originate.
//   - receiver-only: every switch gets an entry. On-tree switches fan out;
//     off-tree switches hold a contact route — the next hop toward their
//     nearest receiving member (paper §1's contact node, resolved greedily
//     per switch so the packet enters the MC at the first on-tree switch
//     along the way). Anyone may originate.
//   - asymmetric: like symmetric, but only registered senders originate.
//
// internal/deliver implements the same semantics as a one-shot trace and
// serves as the oracle the FIB is tested against.
package fib

import (
	"sort"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// Entry is the forwarding state one switch holds for one connection. It is
// immutable after compilation.
type Entry struct {
	// Conn is the connection this entry serves.
	Conn lsa.ConnID
	// Kind is the MC type.
	Kind mctree.Kind
	// Member reports whether this switch is a member (of any role).
	Member bool
	// Local reports whether arriving payloads are delivered to the local
	// application (member with a receiving role).
	Local bool
	// CanSend reports whether the local application may originate on this
	// connection (per-kind rule; always true for receiver-only MCs).
	CanSend bool
	// Neighbors is the tree fan-out: the tree-adjacent switches, ascending.
	// Empty off-tree.
	Neighbors []topo.SwitchID
	// Contact is the nearest receiving member for an off-tree switch of a
	// receiver-only MC (topo.NoSwitch elsewhere). Kept for introspection;
	// forwarding uses ContactNext.
	Contact topo.SwitchID
	// ContactNext is the next hop toward Contact, or topo.NoSwitch.
	ContactNext topo.SwitchID
	// ContactDelay is the image delay from this switch to Contact.
	ContactDelay time.Duration
}

// Entered reports whether a packet at this switch has entered the MC: the
// switch is on the installed tree, or is the sole member of an edgeless MC.
func (e *Entry) Entered() bool { return len(e.Neighbors) > 0 || e.Member }

// Table is an immutable set of entries, one per live connection, swapped
// atomically by the runtime on every forwarding change.
type Table struct {
	entries map[lsa.ConnID]*Entry
}

// Lookup returns the entry for conn, or nil. It is nil-safe so a node that
// has not compiled yet can treat the missing table as empty.
func (t *Table) Lookup(conn lsa.ConnID) *Entry {
	if t == nil {
		return nil
	}
	return t.entries[conn]
}

// Size returns the number of entries (0 for a nil table).
func (t *Table) Size() int {
	if t == nil {
		return 0
	}
	return len(t.entries)
}

// Conns returns the connection IDs with entries, ascending.
func (t *Table) Conns() []lsa.ConnID {
	if t == nil {
		return nil
	}
	out := make([]lsa.ConnID, 0, len(t.entries))
	for id := range t.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Builder compiles a Table for one switch from per-connection control-plane
// state. It borrows a pooled SSSP scratch for the contact-route
// computations; Build releases it.
type Builder struct {
	self    topo.SwitchID
	g       *topo.Graph
	sc      *topo.SSSPScratch
	scRan   bool // the scratch holds this builder's SSSP run from self
	entries map[lsa.ConnID]*Entry
}

// NewBuilder starts a compilation for switch self over link-state image g
// (which is only read during Add calls, never retained by the Table).
func NewBuilder(self topo.SwitchID, g *topo.Graph) *Builder {
	return &Builder{self: self, g: g, entries: make(map[lsa.ConnID]*Entry)}
}

// NewBuilderFrom starts a compilation that differs from prev only in the
// connections of changed: every other entry of prev is carried over as it is
// (entries are immutable, so the two tables share them), and the caller Adds
// each changed connection that is still live. It is NewBuilder's result for
// the same state provided the image has not changed since prev was compiled
// — contact routes are computed from it — so a caller that may have seen an
// image change rebuilds with NewBuilder.
func NewBuilderFrom(self topo.SwitchID, g *topo.Graph, prev *Table, changed []lsa.ConnID) *Builder {
	b := &Builder{self: self, g: g, entries: make(map[lsa.ConnID]*Entry, prev.Size()+len(changed))}
	if prev != nil {
		for id, e := range prev.entries {
			b.entries[id] = e
		}
	}
	for _, id := range changed {
		delete(b.entries, id)
	}
	return b
}

// Add compiles the entry for one connection. A nil tree is treated as
// edgeless (single-member or not-yet-installed state). members and t are
// only read during the call.
func (b *Builder) Add(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree) {
	role, isMember := members[b.self]
	e := &Entry{
		Conn:        conn,
		Kind:        kind,
		Member:      isMember,
		Local:       isMember && role.CanReceive(),
		Contact:     topo.NoSwitch,
		ContactNext: topo.NoSwitch,
	}
	switch kind {
	case mctree.ReceiverOnly:
		e.CanSend = true
	default:
		e.CanSend = isMember && role.CanSend()
	}
	if t != nil {
		e.Neighbors = t.Neighbors(b.self)
	}
	if kind == mctree.ReceiverOnly && !e.Entered() && len(members) > 0 {
		b.contactRoute(e, members)
	}
	b.entries[conn] = e
}

// contactRoute fills e.Contact/ContactNext/ContactDelay with the greedy
// next hop toward the nearest receiving member: minimum image delay,
// member-ID tie-break, lowest-ID predecessor chains — exactly the choice
// internal/deliver's trace makes at each hop, so multi-switch forwarding
// reproduces the oracle path.
func (b *Builder) contactRoute(e *Entry, members mctree.Members) {
	if !b.scRan {
		b.sc = topo.AcquireSSSP()
		b.sc.Reset(b.g.NumSwitches())
		b.sc.Seed(b.self)
		b.g.RunSSSP(b.sc, 0)
		b.scRan = true
	}
	best := topo.NoSwitch
	bestD := topo.Unreachable
	for _, m := range members.IDs() {
		if int(m) < 0 || int(m) >= len(b.sc.Dist) || !members[m].CanReceive() {
			continue
		}
		if d := b.sc.Dist[m]; d < bestD || (d == bestD && (best == topo.NoSwitch || m < best)) {
			best, bestD = m, d
		}
	}
	if best == topo.NoSwitch || bestD == topo.Unreachable {
		return // no reachable member: frames drop with reason no-route
	}
	// Walk the predecessor chain from the contact back to self; the switch
	// whose predecessor is self is our next hop.
	next := best
	for b.sc.Pred[next] != b.self {
		next = b.sc.Pred[next]
		if next == topo.NoSwitch {
			return // self is the contact or the chain is broken
		}
	}
	e.Contact = best
	e.ContactNext = next
	e.ContactDelay = bestD
}

// Build finalizes and returns the table, releasing the builder's scratch.
// The builder must not be reused afterwards.
func (b *Builder) Build() *Table {
	if b.sc != nil {
		topo.ReleaseSSSP(b.sc)
		b.sc = nil
	}
	return &Table{entries: b.entries}
}

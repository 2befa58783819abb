// Package fib is the per-switch forwarding information base of the data
// plane: a compiled, read-only view of every installed MC topology that the
// live runtime's forward path consults on each payload frame. The control
// plane (core.Machine's forwarding-changed effects) recompiles the
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
	"slices"
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

// compiler is the entry rule for one switch over one link-state image. The
// first contact route it computes borrows a pooled SSSP scratch and runs
// one Dijkstra from self into it, which serves every later one; release
// returns the scratch.
type compiler struct {
	self topo.SwitchID
	g    *topo.Graph
	sc   *topo.SSSPScratch // nil until a contact route needs it
}

// compile fills e with conn's entry, reusing the array behind e.Neighbors. A
// nil tree is treated as edgeless (single-member or not-yet-installed
// state). members and t are only read during the call.
func (c *compiler) compile(e *Entry, conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree) {
	role, isMember := members[c.self]
	*e = Entry{
		Conn:        conn,
		Kind:        kind,
		Member:      isMember,
		Local:       isMember && role.CanReceive(),
		Neighbors:   e.Neighbors[:0],
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
		e.Neighbors = t.AppendNeighbors(e.Neighbors, c.self)
	}
	if kind == mctree.ReceiverOnly && !e.Entered() && len(members) > 0 {
		c.contactRoute(e, members)
	}
}

func (c *compiler) release() {
	if c.sc != nil {
		topo.ReleaseSSSP(c.sc)
		c.sc = nil
	}
}

// Builder compiles a Table for one switch from per-connection control-plane
// state.
type Builder struct {
	compiler
	entries map[lsa.ConnID]*Entry
}

// NewBuilder starts a compilation for switch self over link-state image g
// (which is only read during Add calls, never retained by the Table).
func NewBuilder(self topo.SwitchID, g *topo.Graph) *Builder {
	return &Builder{compiler: compiler{self: self, g: g}, entries: make(map[lsa.ConnID]*Entry)}
}

// Add compiles the entry for one connection. A nil tree is treated as
// edgeless (single-member or not-yet-installed state). members and t are
// only read during the call.
func (b *Builder) Add(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree) {
	e := new(Entry)
	b.compile(e, conn, kind, members, t)
	b.entries[conn] = e
}

// contactRoute fills e.Contact/ContactNext/ContactDelay with the greedy
// next hop toward the nearest receiving member: minimum image delay,
// member-ID tie-break, lowest-ID predecessor chains — exactly the choice
// internal/deliver's trace makes at each hop, so multi-switch forwarding
// reproduces the oracle path. The pick is the least (delay, ID) pair, so
// ranging over the member map in any order finds the same one.
func (c *compiler) contactRoute(e *Entry, members mctree.Members) {
	if c.sc == nil {
		c.sc = topo.AcquireSSSP()
		c.sc.Reset(c.g.NumSwitches())
		c.sc.Seed(c.self)
		c.g.RunSSSP(c.sc, 0)
	}
	best := topo.NoSwitch
	bestD := topo.Unreachable
	for m, role := range members {
		if int(m) < 0 || int(m) >= len(c.sc.Dist) || !role.CanReceive() {
			continue
		}
		if d := c.sc.Dist[m]; d < bestD || (d == bestD && (best == topo.NoSwitch || m < best)) {
			best, bestD = m, d
		}
	}
	if best == topo.NoSwitch || bestD == topo.Unreachable {
		return // no reachable member: frames drop with reason no-route
	}
	// Walk the predecessor chain from the contact back to self; the switch
	// whose predecessor is self is our next hop.
	next := best
	for c.sc.Pred[next] != c.self {
		next = c.sc.Pred[next]
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
	b.release()
	return &Table{entries: b.entries}
}

// equal reports whether e and o are the same entry field for field (a nil
// and an empty neighbour list are the same).
func (e *Entry) equal(o *Entry) bool {
	return e.Conn == o.Conn && e.Kind == o.Kind && e.Member == o.Member &&
		e.Local == o.Local && e.CanSend == o.CanSend &&
		slices.Equal(e.Neighbors, o.Neighbors) && e.Contact == o.Contact &&
		e.ContactNext == o.ContactNext && e.ContactDelay == o.ContactDelay
}

// Patch recompiles the entries of some connections of an installed table.
// An install changes one connection, and at most switches that
// connection's entry comes out as it was: Table then returns the installed
// table itself, and only an entry that differs costs a new table (the
// installed one's entries, which are immutable and shared, plus the new
// ones). Contact routes are computed from the image, so it must be the one
// prev was compiled from; a caller that may have seen an image change
// rebuilds with NewBuilder. A Patch is reused across installs: the entries
// it stages keep their storage, and nothing but a table that changed is
// allocated.
type Patch struct {
	compiler
	prev   *Table
	staged []staged
}

// staged is one recompiled connection: its new entry, or none (live false)
// when the connection is gone.
type staged struct {
	conn lsa.ConnID
	live bool
	e    Entry
}

// Reset starts a patch of prev for switch self over image g.
func (p *Patch) Reset(self topo.SwitchID, g *topo.Graph, prev *Table) {
	p.compiler = compiler{self: self, g: g}
	p.prev = prev
	p.staged = p.staged[:0]
}

// Drop stages conn's entry as gone. An Add of conn right after replaces
// the drop, so a caller drops every changed connection and Adds the ones
// still live.
func (p *Patch) Drop(conn lsa.ConnID) {
	p.stage(conn).live = false
}

// Add compiles the entry for one connection, as Builder.Add does.
func (p *Patch) Add(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree) {
	var st *staged
	if n := len(p.staged); n > 0 && p.staged[n-1].conn == conn && !p.staged[n-1].live {
		st = &p.staged[n-1]
	} else {
		st = p.stage(conn)
	}
	st.live = true
	p.compile(&st.e, conn, kind, members, t)
}

// stage appends a slot for conn, reusing the storage behind earlier slots.
func (p *Patch) stage(conn lsa.ConnID) *staged {
	if len(p.staged) < cap(p.staged) {
		p.staged = p.staged[:len(p.staged)+1]
	} else {
		p.staged = append(p.staged, staged{})
	}
	st := &p.staged[len(p.staged)-1]
	st.conn = conn
	return st
}

// differs reports whether st changes what prev holds for its connection.
func (st *staged) differs(prev *Table) bool {
	old := prev.Lookup(st.conn)
	if !st.live {
		return old != nil
	}
	return old == nil || !st.e.equal(old)
}

// Table finalizes the patch: prev itself when every staged connection
// compiled to the entry prev holds (or stays absent from it), otherwise a
// new table. It releases the patch's scratch; Reset starts the next patch.
func (p *Patch) Table() *Table {
	p.release()
	i := 0
	for i < len(p.staged) && !p.staged[i].differs(p.prev) {
		i++
	}
	if i == len(p.staged) {
		return p.prev
	}
	entries := make(map[lsa.ConnID]*Entry, p.prev.Size()+len(p.staged))
	if p.prev != nil {
		for id, e := range p.prev.entries {
			entries[id] = e
		}
	}
	for _, st := range p.staged[i:] {
		switch {
		case !st.live:
			delete(entries, st.conn)
		case st.differs(p.prev):
			e := st.e
			e.Neighbors = nil // the staged array is the patch's, for the next install
			if len(st.e.Neighbors) > 0 {
				e.Neighbors = slices.Clone(st.e.Neighbors)
			}
			entries[st.conn] = &e
		}
	}
	return &Table{entries: entries}
}

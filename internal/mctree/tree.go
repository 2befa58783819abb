// Package mctree represents multipoint-connection topologies: the trees
// (subgraphs) that the D-GMC protocol proposes, floods, and installs into
// per-switch routing entries. It also defines MC kinds (symmetric,
// receiver-only, asymmetric) and member roles, mirroring §1 of the paper.
package mctree

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dgmc/internal/topo"
)

// Kind distinguishes the three MC types of the paper.
type Kind uint8

const (
	// Symmetric: every member may both send and receive (teleconference).
	Symmetric Kind = iota + 1
	// ReceiverOnly: members are receivers; senders deliver to any member
	// (the contact node), which forwards over the MC.
	ReceiverOnly
	// Asymmetric: members are distinguished senders and/or receivers
	// (video broadcast, remote teaching).
	Asymmetric
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Symmetric:
		return "symmetric"
	case ReceiverOnly:
		return "receiver-only"
	case Asymmetric:
		return "asymmetric"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= Symmetric && k <= Asymmetric }

// Role describes how a member switch participates in an MC.
type Role uint8

const (
	// Sender members only transmit.
	Sender Role = 1 << iota
	// Receiver members only receive.
	Receiver
	// SenderReceiver members do both.
	SenderReceiver = Sender | Receiver
)

// CanSend reports whether the role includes sending.
func (r Role) CanSend() bool { return r&Sender != 0 }

// CanReceive reports whether the role includes receiving.
func (r Role) CanReceive() bool { return r&Receiver != 0 }

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Sender:
		return "sender"
	case Receiver:
		return "receiver"
	case SenderReceiver:
		return "sender+receiver"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Members maps member switches to their roles.
type Members map[topo.SwitchID]Role

// Clone returns an independent copy.
func (m Members) Clone() Members {
	c := make(Members, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// IDs returns the member switch IDs in ascending order.
func (m Members) IDs() []topo.SwitchID {
	return m.AppendIDs(make([]topo.SwitchID, 0, len(m)))
}

// AppendIDs appends the member switch IDs to buf in ascending order: IDs
// into the caller's buffer.
func (m Members) AppendIDs(buf []topo.SwitchID) []topo.SwitchID {
	at := len(buf)
	for s := range m {
		buf = append(buf, s)
	}
	slices.Sort(buf[at:])
	return buf
}

// Receivers returns member IDs with a receiving role, ascending.
func (m Members) Receivers() []topo.SwitchID {
	var out []topo.SwitchID
	for s, r := range m {
		if r.CanReceive() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Senders returns member IDs with a sending role, ascending.
func (m Members) Senders() []topo.SwitchID {
	var out []topo.SwitchID
	for s, r := range m {
		if r.CanSend() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether m and o have identical membership and roles.
func (m Members) Equal(o Members) bool {
	if len(m) != len(o) {
		return false
	}
	for k, v := range m {
		if o[k] != v {
			return false
		}
	}
	return true
}

// Edge is an undirected tree edge with canonical ordering A < B.
type Edge struct {
	A, B topo.SwitchID
}

// NewEdge returns the canonical edge for the unordered pair {a,b}.
func NewEdge(a, b topo.SwitchID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Tree is an MC topology: a set of undirected edges plus metadata. The
// canonical form keeps edges sorted, so Equal is structural equality.
type Tree struct {
	// Kind is the MC type this topology serves.
	Kind Kind
	// Root is the source for asymmetric MCs and the designated contact/core
	// hint for receiver-only MCs; topo.NoSwitch when not applicable.
	Root topo.SwitchID
	// edges is kept sorted in (A,B) order.
	edges []Edge
}

// New returns an empty tree of the given kind.
func New(kind Kind) *Tree {
	return &Tree{Kind: kind, Root: topo.NoSwitch}
}

// NewWithRoot returns an empty tree with a root/source annotation.
func NewWithRoot(kind Kind, root topo.SwitchID) *Tree {
	return &Tree{Kind: kind, Root: root}
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	c := &Tree{Kind: t.Kind, Root: t.Root, edges: make([]Edge, len(t.edges))}
	copy(c.edges, t.edges)
	return c
}

// NumEdges returns the number of edges.
func (t *Tree) NumEdges() int { return len(t.edges) }

// Edge returns the i-th edge in canonical order, 0 ≤ i < NumEdges: the
// edge set without Edges' copy.
func (t *Tree) Edge(i int) Edge { return t.edges[i] }

// Edges returns a copy of the edge set in canonical order.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, len(t.edges))
	copy(out, t.edges)
	return out
}

func (t *Tree) search(e Edge) (int, bool) {
	i := sort.Search(len(t.edges), func(i int) bool {
		if t.edges[i].A != e.A {
			return t.edges[i].A >= e.A
		}
		return t.edges[i].B >= e.B
	})
	return i, i < len(t.edges) && t.edges[i] == e
}

// Has reports whether the tree contains the edge {a,b}.
func (t *Tree) Has(a, b topo.SwitchID) bool {
	_, ok := t.search(NewEdge(a, b))
	return ok
}

// AddEdge inserts the edge {a,b}; inserting an existing edge is a no-op.
func (t *Tree) AddEdge(a, b topo.SwitchID) {
	e := NewEdge(a, b)
	i, ok := t.search(e)
	if ok {
		return
	}
	t.edges = append(t.edges, Edge{})
	copy(t.edges[i+1:], t.edges[i:])
	t.edges[i] = e
}

// RemoveEdge deletes the edge {a,b} if present.
func (t *Tree) RemoveEdge(a, b topo.SwitchID) {
	e := NewEdge(a, b)
	i, ok := t.search(e)
	if !ok {
		return
	}
	t.edges = append(t.edges[:i], t.edges[i+1:]...)
}

// Nodes returns every switch touched by some edge, ascending. A one-member
// MC has no edges, hence no nodes; callers treat the member itself as the
// whole topology in that case.
func (t *Tree) Nodes() []topo.SwitchID {
	set := make(map[topo.SwitchID]bool, 2*len(t.edges))
	for _, e := range t.edges {
		set[e.A] = true
		set[e.B] = true
	}
	out := make([]topo.SwitchID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// On reports whether switch s is touched by the tree.
func (t *Tree) On(s topo.SwitchID) bool {
	for _, e := range t.edges {
		if e.A == s || e.B == s {
			return true
		}
	}
	return false
}

// Neighbors returns the tree-adjacent switches of s, ascending (nil when s
// is off the tree). These are exactly the "routing entries for incident
// links" a switch installs when accepting a proposal.
func (t *Tree) Neighbors(s topo.SwitchID) []topo.SwitchID {
	return t.AppendNeighbors(nil, s)
}

// AppendNeighbors appends the tree-adjacent switches of s, ascending, to
// buf, growing it at most once.
func (t *Tree) AppendNeighbors(buf []topo.SwitchID, s topo.SwitchID) []topo.SwitchID {
	degree := 0
	for _, e := range t.edges {
		if e.A == s || e.B == s {
			degree++
		}
	}
	if degree == 0 {
		return buf
	}
	buf = slices.Grow(buf, degree)
	from := len(buf)
	for _, e := range t.edges {
		switch s {
		case e.A:
			buf = append(buf, e.B)
		case e.B:
			buf = append(buf, e.A)
		}
	}
	slices.Sort(buf[from:])
	return buf
}

// Equal reports structural equality (kind, root, edge set).
func (t *Tree) Equal(o *Tree) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Root != o.Root || len(t.edges) != len(o.edges) {
		return false
	}
	for i := range t.edges {
		if t.edges[i] != o.edges[i] {
			return false
		}
	}
	return true
}

// Cost returns the sum of link delays over the tree's edges in g. Edges
// missing from g contribute nothing and are reported by Validate instead.
func (t *Tree) Cost(g *topo.Graph) time.Duration {
	var sum time.Duration
	for _, e := range t.edges {
		if l, ok := g.Link(e.A, e.B); ok {
			sum += l.Delay
		}
	}
	return sum
}

// Validate checks that the tree is a well-formed MC topology over graph g
// for the given members:
//
//   - every edge exists in g and is up,
//   - the edge set is acyclic and connected,
//   - every member lies on the tree (or the MC has ≤1 member and no edges),
//   - an asymmetric tree's root lies on the tree.
func (t *Tree) Validate(g *topo.Graph, members Members) error {
	if !t.Kind.Valid() {
		return fmt.Errorf("mctree: invalid kind %d", t.Kind)
	}
	if len(t.edges) == 0 {
		if len(members) > 1 {
			return fmt.Errorf("mctree: %d members but empty tree", len(members))
		}
		return nil
	}
	for _, e := range t.edges {
		l, ok := g.Link(e.A, e.B)
		if !ok {
			return fmt.Errorf("mctree: edge (%d,%d) not in network", e.A, e.B)
		}
		if l.Down {
			return fmt.Errorf("mctree: edge (%d,%d) uses a failed link", e.A, e.B)
		}
	}
	// Every endpoint is now known to be a switch of g, so the rest runs on
	// flat scratch indexed by switch ID: the tree's node set as marks, and a
	// union-find forest over it in place of an adjacency map and a BFS.
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	n := g.NumSwitches()
	on := sc.Marks(n)
	if cap(sc.IDs) < n {
		sc.IDs = make([]topo.SwitchID, n)
	}
	parent := sc.IDs[:n] // meaningful only where on[s]
	nodes := 0
	for _, e := range t.edges {
		for _, s := range [2]topo.SwitchID{e.A, e.B} {
			if !on[s] {
				on[s], parent[s] = true, s
				nodes++
			}
		}
	}
	if len(t.edges) != nodes-1 {
		return fmt.Errorf("mctree: %d edges over %d nodes (cycle or forest)", len(t.edges), nodes)
	}
	find := func(s topo.SwitchID) topo.SwitchID {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}
	// nodes-1 edges connect nodes switches exactly when none closes a cycle.
	connected := true
	for _, e := range t.edges {
		if a, b := find(e.A), find(e.B); a != b {
			parent[a] = b
		} else {
			connected = false
		}
	}
	if !connected {
		// What a search from the lowest-numbered node — the first edge's A,
		// edges being sorted — would have reached.
		first, reached := find(t.edges[0].A), 0
		for s := range on {
			if on[s] && find(topo.SwitchID(s)) == first {
				reached++
			}
		}
		return fmt.Errorf("mctree: tree is disconnected (%d of %d nodes reachable)", reached, nodes)
	}
	onTree := func(s topo.SwitchID) bool { return s >= 0 && int(s) < n && on[s] }
	for s := range members {
		if !onTree(s) {
			return fmt.Errorf("mctree: member %d not on tree", s)
		}
	}
	if t.Kind == Asymmetric && t.Root != topo.NoSwitch && !onTree(t.Root) {
		return fmt.Errorf("mctree: root %d not on tree", t.Root)
	}
	return nil
}

// PathDelay returns the delay between a and b along the tree (using g's
// link delays), or -1 if either is off-tree or they are disconnected.
func (t *Tree) PathDelay(g *topo.Graph, a, b topo.SwitchID) time.Duration {
	if a == b {
		if t.On(a) || len(t.edges) == 0 {
			return 0
		}
		return -1
	}
	// BFS over tree edges accumulating delays.
	type item struct {
		s topo.SwitchID
		d time.Duration
	}
	seen := map[topo.SwitchID]bool{a: true}
	queue := []item{{a, 0}}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, nb := range t.Neighbors(cur.s) {
			if seen[nb] {
				continue
			}
			l, ok := g.Link(cur.s, nb)
			if !ok {
				continue
			}
			nd := cur.d + l.Delay
			if nb == b {
				return nd
			}
			seen[nb] = true
			queue = append(queue, item{nb, nd})
		}
	}
	return -1
}

// Diff returns the edges present in new but not old (added) and present in
// old but not new (removed). Either tree may be nil (treated as empty).
func Diff(oldT, newT *Tree) (added, removed []Edge) {
	oldSet := map[Edge]bool{}
	if oldT != nil {
		for _, e := range oldT.edges {
			oldSet[e] = true
		}
	}
	if newT != nil {
		for _, e := range newT.edges {
			if oldSet[e] {
				delete(oldSet, e)
			} else {
				added = append(added, e)
			}
		}
	}
	for e := range oldSet {
		removed = append(removed, e)
	}
	sort.Slice(removed, func(i, j int) bool {
		if removed[i].A != removed[j].A {
			return removed[i].A < removed[j].A
		}
		return removed[i].B < removed[j].B
	})
	return added, removed
}

// String renders the tree compactly, e.g. "symmetric{0-1 1-3}".
func (t *Tree) String() string {
	var b strings.Builder
	b.WriteString(t.Kind.String())
	if t.Root != topo.NoSwitch {
		fmt.Fprintf(&b, "@%d", t.Root)
	}
	b.WriteString("{")
	for i, e := range t.edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e.A, e.B)
	}
	b.WriteString("}")
	return b.String()
}

// AppendBinary appends a wire encoding of t to buf: kind, root, edge count,
// then edge endpoint pairs, all big-endian. A nil tree encodes as a single
// zero byte.
func (t *Tree) AppendBinary(buf []byte) []byte {
	if t == nil {
		return append(buf, 0)
	}
	buf = append(buf, byte(t.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(t.Root)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.edges)))
	for _, e := range t.edges {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.A))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.B))
	}
	return buf
}

// DecodeBinary parses a tree encoded by AppendBinary from the front of buf,
// returning the tree (nil for the nil encoding) and the remaining bytes.
func DecodeBinary(buf []byte) (*Tree, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("mctree: empty buffer")
	}
	kind := Kind(buf[0])
	if kind == 0 {
		return nil, buf[1:], nil
	}
	if !kind.Valid() {
		return nil, nil, fmt.Errorf("mctree: invalid kind byte %d", buf[0])
	}
	buf = buf[1:]
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("mctree: truncated header")
	}
	root := topo.SwitchID(int32(binary.BigEndian.Uint32(buf)))
	cnt := int(binary.BigEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if cnt < 0 || len(buf) < 8*cnt {
		return nil, nil, fmt.Errorf("mctree: truncated edges (%d declared)", cnt)
	}
	t := &Tree{Kind: kind, Root: root, edges: make([]Edge, 0, cnt)}
	// One encoding per tree: AppendBinary emits each edge low endpoint
	// first and the edges in strictly ascending (A,B) order, and anything
	// else is refused rather than normalised — what a switch accepts it
	// re-encodes byte for byte, so a relayed proposal is the proposal sent.
	for i := 0; i < cnt; i++ {
		e := Edge{
			A: topo.SwitchID(int32(binary.BigEndian.Uint32(buf[8*i:]))),
			B: topo.SwitchID(int32(binary.BigEndian.Uint32(buf[8*i+4:]))),
		}
		if e.A >= e.B {
			return nil, nil, fmt.Errorf("mctree: edge %d-%d is not low endpoint first", e.A, e.B)
		}
		if i > 0 {
			if prev := t.edges[i-1]; e.A < prev.A || (e.A == prev.A && e.B <= prev.B) {
				return nil, nil, fmt.Errorf("mctree: edge %d-%d after %d-%d: not in ascending order", e.A, e.B, prev.A, prev.B)
			}
		}
		t.edges = append(t.edges, e)
	}
	return t, buf[8*cnt:], nil
}

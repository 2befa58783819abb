// Package topo models the communication network underneath an MC protocol:
// a set of switches connected by bidirectional, weighted links. It provides
// seeded random generators for the kinds of graphs used in the D-GMC
// simulation study (Waxman and flat G(n,m) random graphs), plus the
// shortest-path machinery (hop counts, delay-weighted Dijkstra, diameter)
// that both the unicast LSR substrate and the MC topology algorithms build
// on.
package topo

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"
)

// SwitchID identifies a switch. Switches in an n-switch network are
// numbered 0..n-1, matching the paper's timestamp indexing.
type SwitchID int

// NoSwitch is the sentinel for "no switch" (e.g. no predecessor on a path).
const NoSwitch SwitchID = -1

// Link is a bidirectional edge between two switches. Delay is the one-hop
// propagation+transmission time; Capacity is in abstract bandwidth units
// and is used by the traffic-concentration analyses.
type Link struct {
	A, B     SwitchID
	Delay    time.Duration
	Capacity float64
	Down     bool
}

// Other returns the endpoint of l that is not s.
func (l Link) Other(s SwitchID) SwitchID {
	if l.A == s {
		return l.B
	}
	return l.A
}

// Has reports whether s is one of l's endpoints.
func (l Link) Has(s SwitchID) bool { return l.A == s || l.B == s }

// Graph is an undirected multigraph-free network of switches. The zero
// value is an empty network; add switches with New and links with AddLink.
type Graph struct {
	n     int
	links []Link
	// adj[s] lists indices into links for switch s.
	adj [][]int
	// index maps canonical (min,max) endpoint pairs to a link index.
	index map[[2]SwitchID]int
}

// New returns a graph with n switches and no links.
func New(n int) *Graph {
	return &Graph{
		n:     n,
		adj:   make([][]int, n),
		index: make(map[[2]SwitchID]int),
	}
}

// NumSwitches returns the number of switches.
func (g *Graph) NumSwitches() int { return g.n }

// NumLinks returns the number of links, including downed ones.
func (g *Graph) NumLinks() int { return len(g.links) }

// Switches returns all switch IDs in ascending order.
func (g *Graph) Switches() []SwitchID {
	out := make([]SwitchID, g.n)
	for i := range out {
		out[i] = SwitchID(i)
	}
	return out
}

func key(a, b SwitchID) [2]SwitchID {
	if a > b {
		a, b = b, a
	}
	return [2]SwitchID{a, b}
}

// AddLink connects a and b with the given delay and capacity. It returns an
// error for self-loops, out-of-range endpoints, or duplicate links.
func (g *Graph) AddLink(a, b SwitchID, delay time.Duration, capacity float64) error {
	if a == b {
		return fmt.Errorf("topo: self-loop at switch %d", a)
	}
	if a < 0 || int(a) >= g.n || b < 0 || int(b) >= g.n {
		return fmt.Errorf("topo: link (%d,%d) out of range [0,%d)", a, b, g.n)
	}
	k := key(a, b)
	if _, dup := g.index[k]; dup {
		return fmt.Errorf("topo: duplicate link (%d,%d)", a, b)
	}
	if delay <= 0 {
		return fmt.Errorf("topo: link (%d,%d) has non-positive delay %v", a, b, delay)
	}
	idx := len(g.links)
	g.links = append(g.links, Link{A: k[0], B: k[1], Delay: delay, Capacity: capacity})
	g.adj[a] = append(g.adj[a], idx)
	g.adj[b] = append(g.adj[b], idx)
	g.index[k] = idx
	return nil
}

// Link returns the link between a and b, if any. Direction is ignored.
func (g *Graph) Link(a, b SwitchID) (Link, bool) {
	idx, ok := g.index[key(a, b)]
	if !ok {
		return Link{}, false
	}
	return g.links[idx], true
}

// Links returns a copy of all links (including downed ones).
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Neighbors returns the switches adjacent to s over up links, in ascending
// order (deterministic iteration matters for reproducible simulations).
func (g *Graph) Neighbors(s SwitchID) []SwitchID {
	if s < 0 || int(s) >= g.n {
		return nil
	}
	out := make([]SwitchID, 0, len(g.adj[s]))
	for _, idx := range g.adj[s] {
		if g.links[idx].Down {
			continue
		}
		out = append(out, g.links[idx].Other(s))
	}
	slices.Sort(out)
	return out
}

// Degree returns the number of up links incident to s.
func (g *Graph) Degree(s SwitchID) int {
	if s < 0 || int(s) >= g.n {
		return 0
	}
	d := 0
	for _, idx := range g.adj[s] {
		if !g.links[idx].Down {
			d++
		}
	}
	return d
}

// LinkIndex returns a stable index for the link between a and b, usable
// with LinkAt. Hot paths that would otherwise call Link (a map lookup) per
// message resolve the index once and re-read the (possibly Down-toggled)
// link state through it.
func (g *Graph) LinkIndex(a, b SwitchID) (int, bool) {
	idx, ok := g.index[key(a, b)]
	return idx, ok
}

// LinkAt returns the link with the given index (see LinkIndex). The index
// must come from LinkIndex; links are never removed, so indices stay valid
// for the graph's lifetime.
func (g *Graph) LinkAt(idx int) Link { return g.links[idx] }

// SetLinkDown marks the link between a and b down (failed) or up.
// It returns an error if no such link exists.
func (g *Graph) SetLinkDown(a, b SwitchID, down bool) error {
	idx, ok := g.index[key(a, b)]
	if !ok {
		return fmt.Errorf("topo: no link (%d,%d)", a, b)
	}
	g.links[idx].Down = down
	return nil
}

// Clone returns a deep copy of the graph, including link states. It copies
// the link table, the adjacency lists (cut from one array, each capped so
// an AddLink on either graph cannot write into the other's) and the index
// as they are.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, links: slices.Clone(g.links), adj: make([][]int, g.n), index: maps.Clone(g.index)}
	flat := make([]int, 0, 2*len(g.links))
	for s, idxs := range g.adj {
		from := len(flat)
		flat = append(flat, idxs...)
		c.adj[s] = flat[from:len(flat):len(flat)]
	}
	return c
}

// ErrDisconnected is returned by analyses that require a connected network.
var ErrDisconnected = errors.New("topo: graph is disconnected")

// Connected reports whether every switch can reach every other over up
// links. An empty graph is trivially connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.Component(0)) == g.n
}

// Component returns the set of switches reachable from start over up links,
// including start itself, in BFS discovery order (a switch's links are
// followed in the order they were added, not by neighbor ID).
func (g *Graph) Component(start SwitchID) []SwitchID {
	if start < 0 || int(start) >= g.n {
		return nil
	}
	sc := AcquireSSSP()
	defer ReleaseSSSP(sc)
	g.Reach(sc, start)
	return slices.Clone(sc.IDs)
}

// Reach marks the switches reachable from start over up links, start
// included, in sc's workspace: the returned slice is sc.Marks, indexed by
// switch ID, and sc.IDs lists the same switches in BFS discovery order; both
// are valid until sc's next use. It is Component for callers that ask "is s
// reachable" of many switches and keep nothing.
func (g *Graph) Reach(sc *SSSPScratch, start SwitchID) []bool {
	seen := sc.Marks(g.n)
	queue := sc.IDs[:0]
	if start >= 0 && int(start) < g.n {
		seen[start] = true
		queue = append(queue, start)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for _, idx := range g.adj[s] {
			if l := &g.links[idx]; !l.Down {
				if nb := l.Other(s); !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	sc.IDs = queue
	return seen
}

// HopDistances returns the hop count from src to every switch over up
// links; unreachable switches get -1.
func (g *Graph) HopDistances(src SwitchID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || int(src) >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []SwitchID{src}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for _, nb := range g.Neighbors(s) {
			if dist[nb] == -1 {
				dist[nb] = dist[s] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// SPT holds a shortest-path tree rooted at Src: per-destination total delay
// and the predecessor on the shortest path. Unreachable destinations have
// Delay < 0 and Pred == NoSwitch.
type SPT struct {
	Src   SwitchID
	Delay []time.Duration
	Pred  []SwitchID
}

// Reachable reports whether dst is reachable from the root.
func (t *SPT) Reachable(dst SwitchID) bool {
	return dst >= 0 && int(dst) < len(t.Pred) && (dst == t.Src || t.Pred[dst] != NoSwitch)
}

// Path returns the switch sequence from the root to dst, inclusive, or nil
// if dst is unreachable.
func (t *SPT) Path(dst SwitchID) []SwitchID {
	if !t.Reachable(dst) {
		return nil
	}
	var rev []SwitchID
	for s := dst; s != NoSwitch; s = t.Pred[s] {
		rev = append(rev, s)
		if s == t.Src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ShortestPaths runs Dijkstra over link delays from src. Ties are broken by
// lower switch ID for determinism (see the kernel in sssp.go).
func (g *Graph) ShortestPaths(src SwitchID) *SPT {
	t := &SPT{
		Src:   src,
		Delay: make([]time.Duration, g.n),
		Pred:  make([]SwitchID, g.n),
	}
	for i := range t.Delay {
		t.Delay[i] = -1
		t.Pred[i] = NoSwitch
	}
	if src < 0 || int(src) >= g.n {
		return t
	}
	sc := AcquireSSSP()
	sc.Reset(g.n)
	sc.Seed(src)
	g.RunSSSP(sc, 0)
	for i := 0; i < g.n; i++ {
		if sc.Dist[i] != Unreachable {
			t.Delay[i] = sc.Dist[i]
			t.Pred[i] = sc.Pred[i]
		}
	}
	t.Pred[src] = NoSwitch
	ReleaseSSSP(sc)
	return t
}

// FloodDiameter returns Tf, the paper's "flooding diameter": the worst-case
// time for a flooded advertisement to reach every switch, i.e. the maximum
// over sources of the maximum shortest-path delay. Returns ErrDisconnected
// if some switch cannot be reached.
func (g *Graph) FloodDiameter() (time.Duration, error) {
	var worst time.Duration
	for s := 0; s < g.n; s++ {
		spt := g.ShortestPaths(SwitchID(s))
		for d := 0; d < g.n; d++ {
			if spt.Delay[d] < 0 {
				return 0, ErrDisconnected
			}
			if spt.Delay[d] > worst {
				worst = spt.Delay[d]
			}
		}
	}
	return worst, nil
}

// HopDiameter returns the maximum hop distance between any pair of
// switches, or an error if the graph is disconnected.
func (g *Graph) HopDiameter() (int, error) {
	worst := 0
	for s := 0; s < g.n; s++ {
		for _, d := range g.HopDistances(SwitchID(s)) {
			if d < 0 {
				return 0, ErrDisconnected
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

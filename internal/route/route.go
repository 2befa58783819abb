// Package route implements the topology-computation algorithms that the
// D-GMC protocol plugs in (paper §3.5): the protocol itself is independent
// of how trees are computed, so this package provides both Steiner-tree
// heuristics for symmetric and receiver-only MCs and source-rooted
// shortest-path trees for asymmetric MCs. Every algorithm is handed the
// reachable members and the tree installed so far; Incremental reads what
// changed off that tree and patches it, the rest compute from scratch.
package route

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// ErrUnreachable is returned when some member cannot be connected to the
// rest of the MC over up links.
var ErrUnreachable = errors.New("route: member unreachable")

// ErrNoSource is returned when an asymmetric MC has receivers but no
// sender to root the tree at.
var ErrNoSource = errors.New("route: asymmetric MC has no sender")

// Algorithm computes MC topologies from a local network image and member
// list. Implementations must be deterministic: identical inputs produce
// identical trees, which the D-GMC consensus relies on for convergence.
type Algorithm interface {
	// Name identifies the algorithm in logs and benchmarks.
	Name() string
	// Compute builds a topology from scratch.
	Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error)
	// Update builds the topology for members given prev, the tree
	// installed before (nil when there is none). What changed since prev
	// is for the implementation to find; it may ignore prev and Compute.
	Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, prev *mctree.Tree) (*mctree.Tree, error)
}

// Compile-time interface checks.
var (
	_ Algorithm = (*SPH)(nil)
	_ Algorithm = (*KMB)(nil)
	_ Algorithm = (*SPT)(nil)
	_ Algorithm = (*CoreBased)(nil)
	_ Algorithm = (*Incremental)(nil)
)

// anchor picks the switches a tree must span for the given kind — appended
// to buf in ascending order — plus the root annotation. For asymmetric MCs
// the tree is rooted at the lowest-numbered sender and spans all receivers
// (and remaining senders, so they stay attached for management traffic as
// ATM UNI does with its root-initiated joins).
func anchor(kind mctree.Kind, members mctree.Members, buf []topo.SwitchID) (span []topo.SwitchID, root topo.SwitchID, err error) {
	root = topo.NoSwitch
	switch kind {
	case mctree.Asymmetric:
		for s, r := range members {
			if r.CanSend() && (root == topo.NoSwitch || s < root) {
				root = s
			}
		}
		if root == topo.NoSwitch && len(members) > 1 {
			return nil, topo.NoSwitch, ErrNoSource
		}
	case mctree.Symmetric, mctree.ReceiverOnly:
	default:
		return nil, topo.NoSwitch, fmt.Errorf("route: invalid MC kind %d", kind)
	}
	return members.AppendIDs(buf), root, nil
}

const inf = topo.Unreachable

// The SPH-style attachment loops keep their working sets flat, in the
// scratch they rent for the kernel: the switches on the tree so far as a
// []bool by switch ID (SSSPScratch.Marks), the members still to attach as a
// slice. Nothing here ranges over a map, so nothing depends on map order —
// and nothing allocates per computation but the tree itself.

// nearestToTree runs a deterministic multi-source Dijkstra from the tree's
// node set and returns, for every switch, the delay to the tree and the
// predecessor toward it. The returned slices alias sc and stay valid until
// sc's next use. Seeding order is irrelevant by the kernel's contract. The
// attachment loops run it once, then keep its result current as the tree
// grows: they seed each switch they graft and run topo.Graph.RelaxSSSP
// (see graft).
func nearestToTree(g *topo.Graph, onTree []bool, sc *topo.SSSPScratch) (dist []time.Duration, pred []topo.SwitchID) {
	sc.Reset(g.NumSwitches())
	for s, on := range onTree {
		if on {
			sc.Seed(topo.SwitchID(s))
		}
	}
	g.RunSSSP(sc, 0)
	return sc.Dist, sc.Pred
}

// nearest returns the index in remaining of the member closest to the tree,
// ties to the lowest ID, or -1 when none of them is reachable.
func nearest(remaining []topo.SwitchID, dist []time.Duration) int {
	at, best, bestD := -1, topo.NoSwitch, inf
	for i, s := range remaining {
		if dist[s] < bestD || (dist[s] == bestD && s < best) {
			at, best, bestD = i, s, dist[s]
		}
	}
	return at
}

// unreachable is the error for members no path attaches, listed ascending.
func unreachable(remaining []topo.SwitchID) error {
	rest := slices.Clone(remaining)
	slices.Sort(rest)
	return fmt.Errorf("%w: %v", ErrUnreachable, rest)
}

// without removes remaining[at]; the order of the rest is not kept.
func without(remaining []topo.SwitchID, at int) []topo.SwitchID {
	last := len(remaining) - 1
	remaining[at] = remaining[last]
	return remaining[:last]
}

// graft adds the shortest path from target back to the tree (following
// sc.Pred after a run from the tree) into t, marks the new nodes in onTree
// and seeds them in sc, so a RelaxSSSP brings sc.Dist and sc.Pred to the
// distances to the grown tree.
func graft(t *mctree.Tree, onTree []bool, sc *topo.SSSPScratch, target topo.SwitchID) {
	for s, p := target, topo.NoSwitch; !onTree[s]; s = p {
		p = sc.Pred[s] // read before Seed clears it
		if p == topo.NoSwitch {
			return
		}
		t.AddEdge(s, p)
		onTree[s] = true
		sc.Seed(s)
	}
}

// attach grafts every switch of remaining onto t, the one nearest to the
// tree first (ties to the lowest ID), along its shortest path to the tree.
// onTree marks t's switches; remaining is consumed. It runs one Dijkstra
// from the tree, then after each graft a RelaxSSSP seeded only by the
// switches the graft added.
func attach(g *topo.Graph, t *mctree.Tree, onTree []bool, sc *topo.SSSPScratch, remaining []topo.SwitchID) error {
	if len(remaining) == 0 {
		return nil
	}
	dist, _ := nearestToTree(g, onTree, sc)
	for {
		at := nearest(remaining, dist)
		if at < 0 {
			return unreachable(remaining)
		}
		graft(t, onTree, sc, remaining[at])
		if remaining = without(remaining, at); len(remaining) == 0 {
			return nil
		}
		g.RelaxSSSP(sc, 0)
	}
}

// SPH is the shortest-path heuristic (Takahashi–Matsuyama) for Steiner
// trees: start from one member and repeatedly attach the member closest to
// the current tree via its shortest path. Its worst-case cost is within 2×
// optimal.
//
// It keeps one distance-to-tree array for the whole computation: one
// Dijkstra from the start switch, then after each graft a RelaxSSSP seeded
// only by the switches the graft added, which touches only the switches
// the grown tree brought closer. The arrays equal what a fresh multi-source
// Dijkstra from the whole tree would give before every attachment, so the
// tree is the one the per-member loop builds (TestSPHMatchesMultiDijkstra).
type SPH struct{}

// Name implements Algorithm.
func (SPH) Name() string { return "sph" }

// Compute implements Algorithm.
func (SPH) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	span, root, err := anchor(kind, members, sc.IDs[:0])
	if err != nil {
		return nil, err
	}
	sc.IDs = span[:0] // keep what anchor grew
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	start := root
	if start == topo.NoSwitch {
		start = span[0]
	}
	onTree := sc.Marks(g.NumSwitches())
	onTree[start] = true
	if err := attach(g, t, onTree, sc, without(span, slices.Index(span, start))); err != nil {
		return nil, err
	}
	return t, nil
}

// Update implements Algorithm by recomputing from scratch; use Incremental
// to wrap SPH with cheap per-event updates.
func (a SPH) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, _ *mctree.Tree) (*mctree.Tree, error) {
	return a.Compute(g, kind, members)
}

// KMB is the Kou–Markowsky–Berman Steiner heuristic: build the complete
// distance graph over members, take its minimum spanning tree, expand each
// MST edge into the underlying shortest path, and prune non-member leaves.
// Like SPH it is within 2× optimal but often trades slightly worse trees
// for a more parallelizable structure.
type KMB struct{}

// Name implements Algorithm.
func (KMB) Name() string { return "kmb" }

// Compute implements Algorithm.
func (KMB) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	// Shortest paths from every member.
	spts := make(map[topo.SwitchID]*topo.SPT, len(span))
	for _, s := range span {
		spts[s] = g.ShortestPaths(s)
	}
	// Prim's MST over the member distance graph, deterministic ties.
	in := map[topo.SwitchID]bool{span[0]: true}
	type via struct {
		from topo.SwitchID
		d    time.Duration
	}
	bestTo := make(map[topo.SwitchID]via, len(span))
	for _, s := range span[1:] {
		d := spts[span[0]].Delay[s]
		if d < 0 {
			return nil, fmt.Errorf("%w: %d", ErrUnreachable, s)
		}
		bestTo[s] = via{span[0], d}
	}
	for len(in) < len(span) {
		pick := topo.NoSwitch
		pickD := inf
		for s, v := range bestTo {
			if in[s] {
				continue
			}
			if v.d < pickD || (v.d == pickD && s < pick) {
				pickD = v.d
				pick = s
			}
		}
		if pick == topo.NoSwitch {
			return nil, ErrUnreachable
		}
		// Expand the MST edge into its underlying path.
		path := spts[bestTo[pick].from].Path(pick)
		for i := 0; i+1 < len(path); i++ {
			t.AddEdge(path[i], path[i+1])
		}
		in[pick] = true
		for s := range bestTo {
			if in[s] {
				continue
			}
			if d := spts[pick].Delay[s]; d >= 0 && d < bestTo[s].d {
				bestTo[s] = via{pick, d}
			}
		}
	}
	// Expanded paths may overlap and create cycles; rebuild as a true tree
	// with BFS over the union subgraph, then prune non-member leaves.
	pruned := spanningSubtree(g, t, span)
	pruned.Kind = kind
	pruned.Root = root
	return pruned, nil
}

// Update implements Algorithm by recomputation.
func (a KMB) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, _ *mctree.Tree) (*mctree.Tree, error) {
	return a.Compute(g, kind, members)
}

// spanningSubtree extracts a cycle-free subtree of union (a subgraph given
// as a Tree's edge set) that spans span, pruning everything else.
func spanningSubtree(g *topo.Graph, union *mctree.Tree, span []topo.SwitchID) *mctree.Tree {
	if len(span) == 0 {
		return mctree.New(union.Kind)
	}
	// BFS from span[0] over the union edges; keep parent pointers.
	parent := map[topo.SwitchID]topo.SwitchID{span[0]: topo.NoSwitch}
	queue := []topo.SwitchID{span[0]}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range union.Neighbors(u) {
			if _, seen := parent[v]; !seen {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	// Keep only edges on paths from members to the BFS root.
	keep := mctree.New(union.Kind)
	marked := map[topo.SwitchID]bool{}
	for _, m := range span {
		if _, ok := parent[m]; !ok {
			continue
		}
		for s := m; !marked[s] && parent[s] != topo.NoSwitch; s = parent[s] {
			keep.AddEdge(s, parent[s])
			marked[s] = true
		}
	}
	_ = g
	return keep
}

// SPT builds a source-rooted shortest-path tree: the union of the shortest
// paths from the root to every member. This is the MOSPF-style topology the
// paper uses for asymmetric MCs.
type SPT struct{}

// Name implements Algorithm.
func (SPT) Name() string { return "spt" }

// Compute implements Algorithm.
func (SPT) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	if root == topo.NoSwitch && len(span) > 0 {
		root = span[0] // symmetric/receiver-only fall back to lowest member
	}
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	spt := g.ShortestPaths(root)
	for _, m := range span {
		if m == root {
			continue
		}
		path := spt.Path(m)
		if path == nil {
			return nil, fmt.Errorf("%w: %d", ErrUnreachable, m)
		}
		for i := 0; i+1 < len(path); i++ {
			t.AddEdge(path[i], path[i+1])
		}
	}
	return t, nil
}

// Update implements Algorithm by recomputation.
func (a SPT) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, _ *mctree.Tree) (*mctree.Tree, error) {
	return a.Compute(g, kind, members)
}

// CoreBased builds a CBT-style shared tree: a core switch is selected and
// every member is attached along its unicast shortest path to the core.
// Zero value uses median core selection; set Core to pin one.
type CoreBased struct {
	// Core, when >= 0, is used as the core switch. Otherwise the member
	// with minimum total delay to all other members is chosen.
	Core topo.SwitchID
}

// NewCoreBased returns a CoreBased with automatic core selection.
func NewCoreBased() *CoreBased { return &CoreBased{Core: topo.NoSwitch} }

// Name implements Algorithm.
func (c *CoreBased) Name() string { return "cbt" }

// SelectCore returns the core used for the given members: the pinned core
// if set, else the member minimizing total shortest-path delay to all
// members (ties to the lowest ID).
func (c *CoreBased) SelectCore(g *topo.Graph, members mctree.Members) (topo.SwitchID, error) {
	if c.Core != topo.NoSwitch {
		return c.Core, nil
	}
	ids := members.IDs()
	if len(ids) == 0 {
		return topo.NoSwitch, errors.New("route: no members to select core from")
	}
	best := topo.NoSwitch
	bestSum := inf
	for _, cand := range ids {
		spt := g.ShortestPaths(cand)
		var sum time.Duration
		ok := true
		for _, m := range ids {
			if spt.Delay[m] < 0 {
				ok = false
				break
			}
			sum += spt.Delay[m]
		}
		if !ok {
			continue
		}
		if sum < bestSum || (sum == bestSum && cand < best) {
			bestSum = sum
			best = cand
		}
	}
	if best == topo.NoSwitch {
		return topo.NoSwitch, ErrUnreachable
	}
	return best, nil
}

// Compute implements Algorithm.
func (c *CoreBased) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	span, _, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	if len(span) == 0 {
		return mctree.New(kind), nil
	}
	core, err := c.SelectCore(g, members)
	if err != nil {
		return nil, err
	}
	t := mctree.NewWithRoot(kind, core)
	if len(span) == 1 && span[0] == core {
		return t, nil
	}
	spt := g.ShortestPaths(core)
	for _, m := range span {
		if m == core {
			continue
		}
		path := spt.Path(m)
		if path == nil {
			return nil, fmt.Errorf("%w: %d", ErrUnreachable, m)
		}
		for i := 0; i+1 < len(path); i++ {
			t.AddEdge(path[i], path[i+1])
		}
	}
	return t, nil
}

// Update implements Algorithm by recomputation.
func (c *CoreBased) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, _ *mctree.Tree) (*mctree.Tree, error) {
	return c.Compute(g, kind, members)
}

// Incremental wraps a base algorithm with the cheap per-event updates the
// paper recommends (§3.5), found by comparing the members with the
// installed tree: it prunes every branch that leads to no member (a leave)
// and grafts each member the tree does not reach along its shortest path
// to the tree, nearest first (a join). Patching several changes at once is
// the same two steps. Everything else falls back to the base Compute: no
// installed tree or one without edges, a change of kind or root, a tree a
// failed link invalidates, a member no path grafts, and a tree with
// nothing to prune or graft — which is how a link event or a §3.5
// re-optimization reaches it.
type Incremental struct {
	// Base computes from-scratch topologies. Required.
	Base Algorithm
}

// NewIncremental wraps base.
func NewIncremental(base Algorithm) *Incremental { return &Incremental{Base: base} }

// Name implements Algorithm.
func (a *Incremental) Name() string { return "incremental(" + a.Base.Name() + ")" }

// Compute implements Algorithm by delegating to the base.
func (a *Incremental) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	return a.Base.Compute(g, kind, members)
}

// Update implements Algorithm.
func (a *Incremental) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, prev *mctree.Tree) (*mctree.Tree, error) {
	if prev == nil || prev.NumEdges() == 0 {
		return a.Base.Compute(g, kind, members)
	}
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	span, root, err := anchor(kind, members, sc.IDs[:0])
	if err != nil {
		return nil, err
	}
	sc.IDs = span[:0] // keep what anchor grew
	if prev.Kind != kind || prev.Root != root || prev.Validate(g, nil) != nil {
		return a.Base.Compute(g, kind, members)
	}
	t := prev.Clone()
	onTree := sc.Marks(g.NumSwitches())
	pruned := prune(t, onTree, func(s topo.SwitchID) bool {
		_, member := members[s]
		return member || s == root
	})
	remaining := span[:0]
	for _, s := range span {
		if !onTree[s] {
			remaining = append(remaining, s)
		}
	}
	if !pruned && len(remaining) == 0 {
		return a.Base.Compute(g, kind, members)
	}
	if attach(g, t, onTree, sc, remaining) != nil {
		return a.Base.Compute(g, kind, members)
	}
	return t, nil
}

// prune removes from t, leaf by leaf, every branch on which no switch is
// needed, and reports whether it removed any. It marks the switches left in
// onTree: t's nodes, or the one needed switch a tree pruned to no edges
// keeps, or none when no switch of t is needed.
func prune(t *mctree.Tree, onTree []bool, needed func(topo.SwitchID) bool) bool {
	degree := make([]int32, len(onTree))
	for i := 0; i < t.NumEdges(); i++ {
		e := t.Edge(i)
		degree[e.A]++
		degree[e.B]++
		onTree[e.A], onTree[e.B] = true, true
	}
	var leaves, nb []topo.SwitchID
	for s, d := range degree {
		if d == 1 && !needed(topo.SwitchID(s)) {
			leaves = append(leaves, topo.SwitchID(s))
		}
	}
	pruned := len(leaves) > 0
	for len(leaves) > 0 {
		s := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		onTree[s] = false
		if degree[s] == 0 {
			continue // its neighbor was the last leaf pruned before it
		}
		nb = t.AppendNeighbors(nb[:0], s)
		p := nb[0]
		t.RemoveEdge(s, p)
		degree[s] = 0
		if degree[p]--; degree[p] <= 1 && !needed(p) {
			leaves = append(leaves, p)
		}
	}
	return pruned
}

// ByName returns a ready-to-use algorithm by name: "sph", "kmb", "spt",
// "cbt", or "incremental" (incremental over SPH).
func ByName(name string) (Algorithm, error) {
	switch name {
	case "sph":
		return SPH{}, nil
	case "kmb":
		return KMB{}, nil
	case "spt":
		return SPT{}, nil
	case "cbt":
		return NewCoreBased(), nil
	case "incremental":
		return NewIncremental(SPH{}), nil
	default:
		return nil, fmt.Errorf("route: unknown algorithm %q", name)
	}
}

package route

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// ErrDelayUnsatisfiable is returned when a member cannot be reached within
// the delay bound even over its direct shortest path.
var ErrDelayUnsatisfiable = errors.New("route: delay bound unsatisfiable")

// DelayBounded computes trees with a quality-of-service constraint: the
// tree delay from the root to every member must not exceed Bound. This
// serves the paper's §2 observation that an event-driven protocol like
// D-GMC can negotiate QoS before data flows (which data-driven MOSPF
// cannot): the bound is part of the connection's contract and every
// proposal honours it.
//
// The algorithm is a constrained shortest-path heuristic: members are
// attached in SPH order via their cheapest path to the tree, but when that
// graft would break the member's delay bound, the member is attached along
// its direct shortest path from the root instead (which is minimal, so if
// it misses the bound no tree can satisfy it).
type DelayBounded struct {
	// Bound is the maximum root-to-member tree delay. Required.
	Bound time.Duration
}

var _ Algorithm = (*DelayBounded)(nil)

// Name implements Algorithm.
func (a DelayBounded) Name() string {
	return fmt.Sprintf("delay-bounded(%v)", a.Bound)
}

// Compute implements Algorithm.
func (a DelayBounded) Compute(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	if a.Bound <= 0 {
		return nil, fmt.Errorf("route: non-positive delay bound %v", a.Bound)
	}
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	if root == topo.NoSwitch && len(span) > 0 {
		root = span[0] // the delay bound needs an anchor point
	}
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	rootSPT := g.ShortestPaths(root)
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	onTree := sc.Marks(g.NumSwitches())
	onTree[root] = true
	remaining := without(slices.Clone(span), slices.Index(span, root))
	// delay[s] is the current tree delay from the root to on-tree switch s.
	delay := map[topo.SwitchID]time.Duration{root: 0}

	// Like SPH, one distance-to-tree array serves every attachment: each
	// switch either path below puts on the tree is seeded in sc, and a
	// RelaxSSSP brings dist and pred up to date before the next pick.
	dist, pred := nearestToTree(g, onTree, sc)
	for ; len(remaining) > 0; g.RelaxSSSP(sc, 0) {
		at := nearest(remaining, dist)
		if at < 0 {
			return nil, unreachable(remaining)
		}
		best, bestD := remaining[at], dist[remaining[at]]
		// Where would the graft attach, and what root delay would result?
		attach := best
		for !onTree[attach] {
			attach = pred[attach]
		}
		grafted := delay[attach] + bestD
		if grafted <= a.Bound {
			a.graftWithDelays(g, t, onTree, delay, sc, best)
		} else {
			// Attach along the direct shortest path from the root.
			direct := rootSPT.Delay[best]
			if direct < 0 {
				return nil, fmt.Errorf("%w: %d", ErrUnreachable, best)
			}
			if direct > a.Bound {
				return nil, fmt.Errorf("%w: member %d needs %v, bound is %v",
					ErrDelayUnsatisfiable, best, direct, a.Bound)
			}
			path := rootSPT.Path(best)
			for i := 0; i+1 < len(path); i++ {
				u, v := path[i], path[i+1]
				if !t.Has(u, v) {
					t.AddEdge(u, v)
				}
				if !onTree[v] {
					onTree[v] = true
					sc.Seed(v)
				}
				l, _ := g.Link(u, v)
				if du, ok := delay[u]; ok {
					if dv, seen := delay[v]; !seen || du+l.Delay < dv {
						delay[v] = du + l.Delay
					}
				}
			}
		}
		remaining = without(remaining, at)
	}
	// Direct-path attachment can close cycles with earlier grafts; rebuild
	// a clean subtree if so, preferring low-delay paths.
	if t.NumEdges() != len(t.Nodes())-1 {
		t = a.rebuild(g, t, span, root)
	}
	// Post-condition: every member within bound (cycle-rebuild may have
	// changed delays; verify rather than trust).
	for _, m := range span {
		if m == root {
			continue
		}
		if d := t.PathDelay(g, root, m); d < 0 || d > a.Bound {
			// Last resort: the pure SPT satisfies the bound iff it is
			// satisfiable at all.
			spt, err := (SPT{}).Compute(g, kind, members)
			if err != nil {
				return nil, err
			}
			spt.Root = root
			return a.verify(g, spt, span, root)
		}
	}
	return t, nil
}

// graftWithDelays grafts the path to target (following sc.Pred), records
// root delays of the new on-tree switches and seeds them in sc.
func (a DelayBounded) graftWithDelays(g *topo.Graph, t *mctree.Tree, onTree []bool,
	delay map[topo.SwitchID]time.Duration, sc *topo.SSSPScratch, target topo.SwitchID) {
	// Collect the path back to the tree, then walk it forward.
	var rev []topo.SwitchID
	s := target
	for !onTree[s] {
		rev = append(rev, s)
		s = sc.Pred[s]
	}
	attach := s
	d := delay[attach]
	for i := len(rev) - 1; i >= 0; i-- {
		next := rev[i]
		l, _ := g.Link(s, next)
		d += l.Delay
		t.AddEdge(s, next)
		onTree[next] = true
		sc.Seed(next)
		delay[next] = d
		s = next
	}
}

// rebuild extracts a low-delay spanning subtree from the (possibly cyclic)
// edge union: a Dijkstra from the root restricted to union edges, pruned to
// the members.
func (a DelayBounded) rebuild(g *topo.Graph, union *mctree.Tree, span []topo.SwitchID, root topo.SwitchID) *mctree.Tree {
	type item struct {
		s topo.SwitchID
		d time.Duration
	}
	dist := map[topo.SwitchID]time.Duration{root: 0}
	parent := map[topo.SwitchID]topo.SwitchID{root: topo.NoSwitch}
	// Simple Dijkstra over the union subgraph.
	done := map[topo.SwitchID]bool{}
	for {
		cur := item{s: topo.NoSwitch, d: inf}
		for s, d := range dist {
			if !done[s] && (d < cur.d || (d == cur.d && s < cur.s)) {
				cur = item{s, d}
			}
		}
		if cur.s == topo.NoSwitch {
			break
		}
		done[cur.s] = true
		for _, nb := range union.Neighbors(cur.s) {
			l, ok := g.Link(cur.s, nb)
			if !ok {
				continue
			}
			nd := cur.d + l.Delay
			if old, seen := dist[nb]; !seen || nd < old {
				dist[nb] = nd
				parent[nb] = cur.s
			}
		}
	}
	out := mctree.NewWithRoot(union.Kind, root)
	marked := map[topo.SwitchID]bool{}
	for _, m := range span {
		for s := m; !marked[s] && parent[s] != topo.NoSwitch; s = parent[s] {
			out.AddEdge(s, parent[s])
			marked[s] = true
		}
	}
	return out
}

// verify checks the bound on a candidate tree, returning
// ErrDelayUnsatisfiable if any member misses it.
func (a DelayBounded) verify(g *topo.Graph, t *mctree.Tree, span []topo.SwitchID, root topo.SwitchID) (*mctree.Tree, error) {
	for _, m := range span {
		if m == root {
			continue
		}
		if d := t.PathDelay(g, root, m); d < 0 || d > a.Bound {
			return nil, fmt.Errorf("%w: member %d at %v, bound %v", ErrDelayUnsatisfiable, m, d, a.Bound)
		}
	}
	return t, nil
}

// Update implements Algorithm by recomputation (incremental updates could
// violate the bound silently).
func (a DelayBounded) Update(g *topo.Graph, kind mctree.Kind, members mctree.Members, _ *mctree.Tree) (*mctree.Tree, error) {
	return a.Compute(g, kind, members)
}

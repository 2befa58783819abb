package route

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// SPH and DelayBounded keep one distance-to-tree array current as the tree
// grows, seeding what they graft and running topo.Graph.RelaxSSSP. The
// references below are the attachment loops as they stood before, verbatim
// but for names: a full multi-source Dijkstra from the whole tree before
// every attachment. The tests hold the production loops to them tree for
// tree and error for error.

// refGraftPred is graft as it stood: it follows pred and seeds nothing.
func refGraftPred(t *mctree.Tree, onTree []bool, pred []topo.SwitchID, target topo.SwitchID) {
	for s := target; !onTree[s]; s = pred[s] {
		p := pred[s]
		if p == topo.NoSwitch {
			return
		}
		t.AddEdge(s, p)
		onTree[s] = true
	}
}

// refSPHPerMember is SPH.Compute with one multi-source Dijkstra per member.
func refSPHPerMember(g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	sc := new(topo.SSSPScratch)
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	start := root
	if start == topo.NoSwitch {
		start = span[0]
	}
	onTree := make([]bool, g.NumSwitches())
	onTree[start] = true
	remaining := without(span, slices.Index(span, start))
	for len(remaining) > 0 {
		dist, pred := nearestToTree(g, onTree, sc)
		at := nearest(remaining, dist)
		if at < 0 {
			return nil, unreachable(remaining)
		}
		refGraftPred(t, onTree, pred, remaining[at])
		remaining = without(remaining, at)
	}
	return t, nil
}

// refDelayBoundedPerMember is DelayBounded.Compute with one multi-source
// Dijkstra per member.
func refDelayBoundedPerMember(a DelayBounded, g *topo.Graph, kind mctree.Kind, members mctree.Members) (*mctree.Tree, error) {
	if a.Bound <= 0 {
		return nil, fmt.Errorf("route: non-positive delay bound %v", a.Bound)
	}
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	if root == topo.NoSwitch && len(span) > 0 {
		root = span[0]
	}
	t := mctree.NewWithRoot(kind, root)
	if len(span) <= 1 {
		return t, nil
	}
	rootSPT := g.ShortestPaths(root)
	sc := new(topo.SSSPScratch)
	onTree := make([]bool, g.NumSwitches())
	onTree[root] = true
	remaining := without(slices.Clone(span), slices.Index(span, root))
	delay := map[topo.SwitchID]time.Duration{root: 0}
	for len(remaining) > 0 {
		dist, pred := nearestToTree(g, onTree, sc)
		at := nearest(remaining, dist)
		if at < 0 {
			return nil, unreachable(remaining)
		}
		best, bestD := remaining[at], dist[remaining[at]]
		attach := best
		for !onTree[attach] {
			attach = pred[attach]
		}
		if delay[attach]+bestD <= a.Bound {
			var rev []topo.SwitchID
			s := best
			for !onTree[s] {
				rev = append(rev, s)
				s = pred[s]
			}
			d := delay[s]
			for i := len(rev) - 1; i >= 0; i-- {
				next := rev[i]
				l, _ := g.Link(s, next)
				d += l.Delay
				t.AddEdge(s, next)
				onTree[next] = true
				delay[next] = d
				s = next
			}
		} else {
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
				onTree[v] = true
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
	if t.NumEdges() != len(t.Nodes())-1 {
		t = a.rebuild(g, t, span, root)
	}
	for _, m := range span {
		if m == root {
			continue
		}
		if d := t.PathDelay(g, root, m); d < 0 || d > a.Bound {
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

// refCaseGraph draws the i-th test graph: Waxman graphs with distinct
// delays, grids and uniform-delay G(n,m) graphs full of equal-cost ties,
// each with links down in three of four draws.
func refCaseGraph(t *testing.T, rng *rand.Rand, i int) *topo.Graph {
	t.Helper()
	var g *topo.Graph
	var err error
	switch i % 3 {
	case 0:
		g, err = topo.Waxman(topo.DefaultGenConfig(4+rng.Intn(40), int64(i)))
	case 1:
		g, err = topo.Grid(1+rng.Intn(6), 2+rng.Intn(6), time.Duration(1+rng.Intn(3))*10*time.Microsecond)
	default:
		cfg := topo.DefaultGenConfig(4+rng.Intn(30), int64(i))
		cfg.MinDelay, cfg.MaxDelay = 10*time.Microsecond, 10*time.Microsecond
		cfg.AvgDegree = 2 + 2*rng.Float64()
		g, err = topo.GNM(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if down := rng.Intn(4); down > 0 {
		for _, l := range g.Links() {
			if rng.Intn(10) < down {
				g.SetLinkDown(l.A, l.B, true)
			}
		}
	}
	return g
}

// refCaseMembers draws a member set of up to size switches with random roles.
func refCaseMembers(rng *rand.Rand, n, size int) mctree.Members {
	members := mctree.Members{}
	for len(members) < min(size, n) {
		members[topo.SwitchID(rng.Intn(n))] = mctree.Role(1 + rng.Intn(3))
	}
	return members
}

var refKinds = []mctree.Kind{mctree.Symmetric, mctree.ReceiverOnly, mctree.Asymmetric}

// sameResult reports whether two computations agree: equal trees, or equal
// error text and the same ErrUnreachable classification.
func sameResult(got *mctree.Tree, gotErr error, want *mctree.Tree, wantErr error) bool {
	if wantErr != nil || gotErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error() &&
			errors.Is(gotErr, ErrUnreachable) == errors.Is(wantErr, ErrUnreachable)
	}
	return got.Equal(want)
}

// TestSPHMatchesMultiDijkstra: on 5 100 random graphs with links down, for
// all three kinds and member sets from two switches to half the network,
// reachable or not, SPH returns the per-member loop's tree edge for edge or
// its error word for word.
func TestSPHMatchesMultiDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const graphs = 5100
	cases, unreachableCases := 0, 0
	for i := 0; i < graphs; i++ {
		g := refCaseGraph(t, rng, i)
		n := g.NumSwitches()
		for _, size := range []int{2, 3, 2 + rng.Intn(n/2+1)} {
			members := refCaseMembers(rng, n, size)
			for _, kind := range refKinds {
				got, gotErr := (SPH{}).Compute(g, kind, members)
				want, wantErr := refSPHPerMember(g, kind, members)
				cases++
				if errors.Is(wantErr, ErrUnreachable) {
					unreachableCases++
				}
				if !sameResult(got, gotErr, want, wantErr) {
					t.Fatalf("graph %d %v members %v:\n  one array:  %v, %v\n  per member: %v, %v", i, kind, members, got, gotErr, want, wantErr)
				}
			}
		}
	}
	if unreachableCases < cases/20 || unreachableCases > cases*19/20 {
		t.Fatalf("%d cases, %d of them unreachable: not the mix this test is for", cases, unreachableCases)
	}
	t.Logf("%d graphs, %d cases, %d of them unreachable", graphs, cases, unreachableCases)
}

// TestDelayBoundedMatchesMultiDijkstra holds DelayBounded's attachment loop
// to its per-member form the same way, at bounds from tight (direct paths,
// unsatisfiable members) to loose (SPH order).
func TestDelayBoundedMatchesMultiDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const graphs = 1200
	cases, failed := 0, 0
	for i := 0; i < graphs; i++ {
		g := refCaseGraph(t, rng, i)
		n := g.NumSwitches()
		members := refCaseMembers(rng, n, 2+rng.Intn(n/2+1))
		for _, bound := range []time.Duration{20 * time.Microsecond, 60 * time.Microsecond, time.Millisecond} {
			a := DelayBounded{Bound: bound}
			for _, kind := range refKinds {
				got, gotErr := a.Compute(g, kind, members)
				want, wantErr := refDelayBoundedPerMember(a, g, kind, members)
				cases++
				if wantErr != nil {
					failed++
				}
				if !sameResult(got, gotErr, want, wantErr) {
					t.Fatalf("graph %d bound %v %v members %v:\n  one array:  %v, %v\n  per member: %v, %v", i, bound, kind, members, got, gotErr, want, wantErr)
				}
			}
		}
	}
	if failed < cases/20 || failed > cases*19/20 {
		t.Fatalf("%d cases, %d of them errors: not the mix this test is for", cases, failed)
	}
	t.Logf("%d cases, %d of them errors", cases, failed)
}

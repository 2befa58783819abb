package route

import (
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// This file pins the heap-based SSSP kernel to the O(n²) linear-min scan it
// replaced, bit for bit. D-GMC's consensus assumes every switch computes the
// same tree from the same image, so the kernel swap must not change a single
// predecessor choice — not even among equal-cost paths. The reference
// implementations below are verbatim copies of the replaced code.

// refNearestToTree is the pre-kernel multi-source linear-scan Dijkstra from
// this package.
func refNearestToTree(g *topo.Graph, onTree map[topo.SwitchID]bool) (dist []time.Duration, pred []topo.SwitchID) {
	n := g.NumSwitches()
	dist = make([]time.Duration, n)
	pred = make([]topo.SwitchID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		pred[i] = topo.NoSwitch
	}
	for s := range onTree {
		dist[s] = 0
	}
	for {
		u := topo.NoSwitch
		best := inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				best = dist[i]
				u = topo.SwitchID(i)
			}
		}
		if u == topo.NoSwitch {
			break
		}
		done[u] = true
		for _, v := range g.Neighbors(u) {
			l, ok := g.Link(u, v)
			if !ok || l.Down {
				continue
			}
			if nd := dist[u] + l.Delay; nd < dist[v] || (nd == dist[v] && !done[v] && pred[v] > u) {
				dist[v] = nd
				pred[v] = u
			}
		}
	}
	return dist, pred
}

// refShortestPaths is the pre-kernel single-source linear-scan Dijkstra from
// topo.Graph.ShortestPaths.
func refShortestPaths(g *topo.Graph, src topo.SwitchID) *topo.SPT {
	t := &topo.SPT{
		Src:   src,
		Delay: make([]time.Duration, g.NumSwitches()),
		Pred:  make([]topo.SwitchID, g.NumSwitches()),
	}
	for i := range t.Delay {
		t.Delay[i] = -1
		t.Pred[i] = topo.NoSwitch
	}
	if src < 0 || int(src) >= g.NumSwitches() {
		return t
	}
	n := g.NumSwitches()
	dist := make([]time.Duration, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u := topo.NoSwitch
		best := inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				best = dist[i]
				u = topo.SwitchID(i)
			}
		}
		if u == topo.NoSwitch {
			break
		}
		done[u] = true
		for _, v := range g.Neighbors(u) {
			l, ok := g.Link(u, v)
			if !ok || l.Down {
				continue
			}
			if nd := dist[u] + l.Delay; nd < dist[v] || (nd == dist[v] && !done[v] && t.Pred[v] > u) {
				dist[v] = nd
				t.Pred[v] = u
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i] < inf {
			t.Delay[i] = dist[i]
		}
	}
	t.Pred[src] = topo.NoSwitch
	return t
}

// degradedCopy clones g and deterministically fails every fifth link, so the
// comparison also covers Down handling and unreachable switches.
func degradedCopy(t *testing.T, g *topo.Graph) *topo.Graph {
	t.Helper()
	c := g.Clone()
	for i, l := range c.Links() {
		if i%5 == 2 {
			if err := c.SetLinkDown(l.A, l.B, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestKernelMatchesLinearScanReference(t *testing.T) {
	for _, n := range []int{8, 24, 48, 96} {
		for seed := int64(1); seed <= 4; seed++ {
			base, err := topo.Waxman(topo.DefaultGenConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*topo.Graph{base, degradedCopy(t, base)} {
				// Single-source: every root, exact Delay and Pred.
				for src := 0; src < n; src++ {
					got := g.ShortestPaths(topo.SwitchID(src))
					want := refShortestPaths(g, topo.SwitchID(src))
					for i := 0; i < n; i++ {
						if got.Delay[i] != want.Delay[i] || got.Pred[i] != want.Pred[i] {
							t.Fatalf("n=%d seed=%d src=%d switch %d: kernel (delay %v pred %d) != reference (delay %v pred %d)",
								n, seed, src, i, got.Delay[i], got.Pred[i], want.Delay[i], want.Pred[i])
						}
					}
				}
				// Multi-source: the seed sets SPH actually generates.
				sc := topo.AcquireSSSP()
				for _, onTree := range []map[topo.SwitchID]bool{
					{0: true},
					{topo.SwitchID(n / 2): true, topo.SwitchID(n - 1): true},
					{1: true, topo.SwitchID(n / 3): true, topo.SwitchID(2 * n / 3): true},
				} {
					flat := make([]bool, n)
					for s := range onTree {
						flat[s] = true
					}
					gotD, gotP := nearestToTree(g, flat, sc)
					wantD, wantP := refNearestToTree(g, onTree)
					for i := 0; i < n; i++ {
						if gotD[i] != wantD[i] || gotP[i] != wantP[i] {
							t.Fatalf("n=%d seed=%d onTree=%v switch %d: kernel (dist %v pred %d) != reference (dist %v pred %d)",
								n, seed, onTree, i, gotD[i], gotP[i], wantD[i], wantP[i])
						}
					}
				}
				topo.ReleaseSSSP(sc)
				// End to end: the trees the protocol would flood.
				members := mctree.Members{}
				for s := 0; s < n; s += 3 {
					members[topo.SwitchID(s)] = mctree.SenderReceiver
				}
				gotT, gotErr := (SPH{}).Compute(g, mctree.Symmetric, members)
				wantT, wantErr := refSPHCompute(g, mctree.Symmetric, members, refNearestToTree)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("n=%d seed=%d: kernel err %v, reference err %v", n, seed, gotErr, wantErr)
				}
				if gotErr == nil && !gotT.Equal(wantT) {
					t.Fatalf("n=%d seed=%d: kernel tree %v != reference tree %v", n, seed, gotT, wantT)
				}
			}
		}
	}
}

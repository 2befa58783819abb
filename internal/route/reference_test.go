package route

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// The map-based proposal path as it stood before it moved onto flat scratch,
// verbatim: anchor over Members.IDs/Senders, onTree and remaining as maps, a
// map-ranged seeding loop. TestFlatPathMatchesMapReference holds the flat
// path to it tree for tree and error for error; the linear-scan kernel
// test in determinism_test.go runs the same reference over its own kernel.

func refAnchor(kind mctree.Kind, members mctree.Members) (span []topo.SwitchID, root topo.SwitchID, err error) {
	switch kind {
	case mctree.Asymmetric:
		senders := members.Senders()
		if len(senders) == 0 {
			if len(members) <= 1 {
				return members.IDs(), topo.NoSwitch, nil
			}
			return nil, topo.NoSwitch, ErrNoSource
		}
		return members.IDs(), senders[0], nil
	case mctree.Symmetric, mctree.ReceiverOnly:
		return members.IDs(), topo.NoSwitch, nil
	default:
		return nil, topo.NoSwitch, fmt.Errorf("route: invalid MC kind %d", kind)
	}
}

func refNearestToTreeMap(g *topo.Graph, onTree map[topo.SwitchID]bool) (dist []time.Duration, pred []topo.SwitchID) {
	sc := new(topo.SSSPScratch)
	sc.Reset(g.NumSwitches())
	for s := range onTree {
		sc.Seed(s)
	}
	g.RunSSSP(sc, 0)
	return sc.Dist, sc.Pred
}

func refGraft(t *mctree.Tree, onTree map[topo.SwitchID]bool, pred []topo.SwitchID, target topo.SwitchID) {
	for s := target; !onTree[s]; s = pred[s] {
		p := pred[s]
		if p == topo.NoSwitch {
			return
		}
		t.AddEdge(s, p)
		onTree[s] = true
	}
}

func refKeys(m map[topo.SwitchID]bool) []topo.SwitchID {
	out := make([]topo.SwitchID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refSPHCompute is the map-based SPH.Compute over the given multi-source
// kernel: refNearestToTreeMap for the code as it stood, the linear scan of
// determinism_test.go for the kernel it once replaced.
func refSPHCompute(g *topo.Graph, kind mctree.Kind, members mctree.Members,
	nearest func(*topo.Graph, map[topo.SwitchID]bool) ([]time.Duration, []topo.SwitchID)) (*mctree.Tree, error) {
	span, root, err := refAnchor(kind, members)
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
	onTree := map[topo.SwitchID]bool{start: true}
	remaining := make(map[topo.SwitchID]bool, len(span))
	for _, s := range span {
		if s != start {
			remaining[s] = true
		}
	}
	for len(remaining) > 0 {
		dist, pred := nearest(g, onTree)
		// Pick the closest remaining member; ties by lowest ID.
		best := topo.NoSwitch
		bestD := inf
		for s := range remaining {
			if dist[s] < bestD || (dist[s] == bestD && s < best) {
				bestD = dist[s]
				best = s
			}
		}
		if best == topo.NoSwitch || bestD == inf {
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, refKeys(remaining))
		}
		refGraft(t, onTree, pred, best)
		delete(remaining, best)
	}
	return t, nil
}

// TestFlatPathMatchesMapReference: on random Waxman and grid graphs with
// downed links, for all three kinds, member sets from empty to a third of
// the network, reachable or not, with and without senders, the flat SPH
// returns the map-based one's tree edge for edge or its error word for word,
// and both Validate.
func TestFlatPathMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cases, failed := 0, 0
	for round := 0; round < 300; round++ {
		var g *topo.Graph
		var err error
		if round%2 == 0 {
			g, err = topo.Waxman(topo.DefaultGenConfig(6+rng.Intn(90), int64(round)))
		} else {
			g, err = topo.Grid(2+rng.Intn(7), 2+rng.Intn(7), time.Duration(1+rng.Intn(3))*10*time.Microsecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumSwitches()
		if down := rng.Intn(4); down > 0 { // 0: intact; else every link down with probability down/10
			for _, l := range g.Links() {
				if rng.Intn(10) < down {
					g.SetLinkDown(l.A, l.B, true)
				}
			}
		}
		for _, size := range []int{0, 1, 2, 3, 1 + rng.Intn(n/3+1), 1 + rng.Intn(n/3+1)} {
			members := mctree.Members{}
			for len(members) < min(size, n) {
				members[topo.SwitchID(rng.Intn(n))] = mctree.Role(1 + rng.Intn(3))
			}
			for _, kind := range []mctree.Kind{mctree.Symmetric, mctree.ReceiverOnly, mctree.Asymmetric, mctree.Kind(0)} {
				got, gotErr := (SPH{}).Compute(g, kind, members)
				want, wantErr := refSPHCompute(g, kind, members, refNearestToTreeMap)
				cases++
				if wantErr != nil {
					failed++
					if gotErr == nil || gotErr.Error() != wantErr.Error() || errors.Is(gotErr, ErrUnreachable) != errors.Is(wantErr, ErrUnreachable) {
						t.Fatalf("round %d %v members %v: flat error %v, map error %v", round, kind, members, gotErr, wantErr)
					}
					continue
				}
				if gotErr != nil || !got.Equal(want) {
					t.Fatalf("round %d %v members %v:\n  flat: %v, %v\n  map:  %v", round, kind, members, got, gotErr, want)
				}
				if err := got.Validate(g, members); err != nil {
					t.Fatalf("round %d %v members %v: %v does not validate: %v", round, kind, members, got, err)
				}
			}
		}
	}
	if cases < 1000 || failed < cases/20 || failed > cases*19/20 {
		t.Fatalf("%d cases, %d of them errors: not the mix this test is for", cases, failed)
	}
	t.Logf("%d cases, %d of them errors", cases, failed)
}

package route

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// hintChange is the single membership change the reference below was told
// about.
type hintChange struct {
	Switch topo.SwitchID
	Join   bool
}

// hintUpdate is Incremental.Update as it was when the protocol machine
// handed it the change that triggered the computation: a join grafted the
// joined switch, a leave pruned leaves, anything else (no hint, no tree, a
// change of kind or root, an invalidated tree) computed from scratch. It is
// kept as the reference a single join or leave must still match.
func hintUpdate(g *topo.Graph, kind mctree.Kind, members mctree.Members, prev *mctree.Tree, delta *hintChange) (*mctree.Tree, error) {
	if prev == nil || delta == nil {
		return SPH{}.Compute(g, kind, members)
	}
	span, root, err := anchor(kind, members, nil)
	if err != nil {
		return nil, err
	}
	if prev.Kind != kind || prev.Root != root || prev.Validate(g, nil) != nil {
		return SPH{}.Compute(g, kind, members)
	}
	t := prev.Clone()
	if delta.Join {
		sc := topo.AcquireSSSP()
		defer topo.ReleaseSSSP(sc)
		onTree := sc.Marks(g.NumSwitches())
		for _, s := range t.Nodes() {
			onTree[s] = true
		}
		if t.NumEdges() == 0 {
			for _, s := range span {
				if s != delta.Switch {
					onTree[s] = true
				}
			}
		}
		if onTree[delta.Switch] {
			return t, nil
		}
		if dist, _ := nearestToTree(g, onTree, sc); dist[delta.Switch] == inf {
			return nil, fmt.Errorf("%w: %d", ErrUnreachable, delta.Switch)
		}
		graft(t, onTree, sc, delta.Switch)
		return t, nil
	}
	if len(span) <= 1 {
		return mctree.NewWithRoot(kind, t.Root), nil
	}
	needed := map[topo.SwitchID]bool{t.Root: true}
	for _, s := range span {
		needed[s] = true
	}
	for trimmed := true; trimmed; {
		trimmed = false
		for _, s := range t.Nodes() {
			if nb := t.Neighbors(s); !needed[s] && len(nb) == 1 {
				t.RemoveEdge(s, nb[0])
				trimmed = true
			}
		}
	}
	return t, nil
}

// randomMembers draws 2 to 7 distinct switches with random roles; an
// asymmetric MC gets at least one sender.
func randomMembers(rng *rand.Rand, n int, kind mctree.Kind) mctree.Members {
	roles := []mctree.Role{mctree.Sender, mctree.Receiver, mctree.SenderReceiver}
	members := mctree.Members{}
	for want := 2 + rng.Intn(6); len(members) < want; {
		members[topo.SwitchID(rng.Intn(n))] = roles[rng.Intn(len(roles))]
	}
	if kind == mctree.Asymmetric {
		members[members.IDs()[0]] = mctree.SenderReceiver
	}
	return members
}

// checkPatched holds a result to what any Update must give: a valid tree
// of the MC's kind and root that spans the members, with no leaf that is
// neither a member nor the root.
func checkPatched(t *testing.T, g *topo.Graph, kind mctree.Kind, members mctree.Members, got *mctree.Tree) {
	t.Helper()
	if err := got.Validate(g, members); err != nil {
		t.Fatalf("members %v: invalid tree %v: %v", members, got, err)
	}
	_, root, _ := anchor(kind, members, nil)
	if got.Kind != kind || got.Root != root {
		t.Fatalf("members %v: tree %v has kind %v root %d, want %v root %d", members, got, got.Kind, got.Root, kind, root)
	}
	for _, s := range got.Nodes() {
		if _, member := members[s]; !member && s != root && len(got.Neighbors(s)) == 1 {
			t.Fatalf("members %v: tree %v keeps leaf %d, neither a member nor the root", members, got, s)
		}
	}
}

// TestIncrementalFindsChangeFromPrev: handed only the installed tree,
// Incremental patches a single join or leave exactly as the hint-driven
// reference does, patches any change set into a valid tree without dangling
// relays, and computes from scratch when the tree needs neither a prune nor
// a graft.
func TestIncrementalFindsChangeFromPrev(t *testing.T) {
	grid5, err := topo.Grid(5, 5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	waxman, err := topo.Waxman(topo.DefaultGenConfig(40, 11))
	if err != nil {
		t.Fatal(err)
	}
	alg := NewIncremental(SPH{})
	rng := rand.New(rand.NewSource(44))
	for _, g := range []*topo.Graph{grid5, waxman} {
		n := g.NumSwitches()
		for _, kind := range []mctree.Kind{mctree.Symmetric, mctree.ReceiverOnly, mctree.Asymmetric} {
			var joins, leaves, sets, scratch int
			for trial := 0; trial < 300; trial++ {
				members := randomMembers(rng, n, kind)
				prev, err := SPH{}.Compute(g, kind, members)
				if err != nil {
					t.Fatal(err)
				}

				// A single join of a switch prev does not reach.
				if s := topo.SwitchID(rng.Intn(n)); !prev.On(s) {
					grown := members.Clone()
					grown[s] = mctree.SenderReceiver
					got, err := alg.Update(g, kind, grown, prev)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := hintUpdate(g, kind, grown, prev, &hintChange{Switch: s, Join: true})
					if !got.Equal(want) {
						t.Fatalf("%v: join %d onto %v gives %v, the hint-driven update %v", kind, s, prev, got, want)
					}
					checkPatched(t, g, kind, grown, got)
					joins++
				}

				// A single leave of a leaf member.
				for _, s := range prev.Nodes() {
					if len(prev.Neighbors(s)) != 1 {
						continue
					}
					shrunk := members.Clone()
					delete(shrunk, s)
					if _, _, err := anchor(kind, shrunk, nil); err != nil {
						break // the last sender left an asymmetric MC
					}
					got, err := alg.Update(g, kind, shrunk, prev)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := hintUpdate(g, kind, shrunk, prev, &hintChange{Switch: s})
					if !got.Equal(want) {
						t.Fatalf("%v: leave of %d from %v gives %v, the hint-driven update %v", kind, s, prev, got, want)
					}
					checkPatched(t, g, kind, shrunk, got)
					leaves++
					break
				}

				// Any change set: several joins and leaves at once.
				next := randomMembers(rng, n, kind)
				for _, s := range members.IDs() {
					if _, drawn := next[s]; !drawn && rng.Intn(2) == 0 {
						next[s] = members[s]
					}
				}
				got, err := alg.Update(g, kind, next, prev)
				if err != nil {
					t.Fatal(err)
				}
				checkPatched(t, g, kind, next, got)
				sets++

				// Nothing to prune or graft: the same members, or the
				// leave of a member prev keeps as a relay.
				same := members.Clone()
				for _, s := range prev.Nodes() {
					if _, member := same[s]; member && len(prev.Neighbors(s)) > 1 && s != prev.Root {
						delete(same, s)
						break
					}
				}
				got, err = alg.Update(g, kind, same, prev)
				if err != nil {
					t.Fatal(err)
				}
				want, err := SPH{}.Compute(g, kind, same)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v: nothing to patch on %v for %v, got %v, want SPH's %v", kind, prev, same, got, want)
				}
				scratch++
			}
			if joins == 0 || leaves == 0 {
				t.Errorf("%v on %d switches: %d single joins, %d single leaves exercised", kind, n, joins, leaves)
			}
			t.Logf("%v on %d switches: %d joins, %d leaves, %d change sets, %d unchanged trees", kind, n, joins, leaves, sets, scratch)
		}
	}
}

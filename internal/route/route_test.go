package route

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

func grid(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func symMembers(ids ...topo.SwitchID) mctree.Members {
	m := make(mctree.Members, len(ids))
	for _, s := range ids {
		m[s] = mctree.SenderReceiver
	}
	return m
}

func allAlgorithms() []Algorithm {
	return []Algorithm{SPH{}, KMB{}, SPT{}, NewCoreBased(), NewIncremental(SPH{})}
}

func TestComputeProducesValidTrees(t *testing.T) {
	g := grid(t)
	members := symMembers(0, 3, 12, 15) // four corners
	for _, alg := range allAlgorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			for _, kind := range []mctree.Kind{mctree.Symmetric, mctree.ReceiverOnly} {
				tr, err := alg.Compute(g, kind, members)
				if err != nil {
					t.Fatalf("%s/%s: %v", alg.Name(), kind, err)
				}
				if err := tr.Validate(g, members); err != nil {
					t.Fatalf("%s/%s: invalid tree %v: %v", alg.Name(), kind, tr, err)
				}
				if tr.Kind != kind {
					t.Errorf("kind = %v, want %v", tr.Kind, kind)
				}
			}
		})
	}
}

func TestAsymmetricRootsAtSender(t *testing.T) {
	g := grid(t)
	members := mctree.Members{5: mctree.Sender, 0: mctree.Receiver, 15: mctree.Receiver}
	for _, alg := range []Algorithm{SPH{}, KMB{}, SPT{}, NewIncremental(SPH{})} {
		tr, err := alg.Compute(g, mctree.Asymmetric, members)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if tr.Root != 5 {
			t.Errorf("%s: root = %d, want 5", alg.Name(), tr.Root)
		}
		if err := tr.Validate(g, members); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestAsymmetricWithoutSenderFails(t *testing.T) {
	g := grid(t)
	members := mctree.Members{0: mctree.Receiver, 15: mctree.Receiver}
	for _, alg := range []Algorithm{SPH{}, KMB{}, SPT{}} {
		if _, err := alg.Compute(g, mctree.Asymmetric, members); !errors.Is(err, ErrNoSource) {
			t.Errorf("%s: err = %v, want ErrNoSource", alg.Name(), err)
		}
	}
	// Single receiver-only member is fine (degenerate MC).
	if _, err := (SPH{}).Compute(g, mctree.Asymmetric, mctree.Members{0: mctree.Receiver}); err != nil {
		t.Errorf("singleton asymmetric MC: %v", err)
	}
}

func TestSingletonAndEmptyMemberSets(t *testing.T) {
	g := grid(t)
	for _, alg := range allAlgorithms() {
		tr, err := alg.Compute(g, mctree.Symmetric, symMembers(7))
		if err != nil {
			t.Fatalf("%s singleton: %v", alg.Name(), err)
		}
		if tr.NumEdges() != 0 {
			t.Errorf("%s singleton: %d edges", alg.Name(), tr.NumEdges())
		}
	}
	tr, err := (SPH{}).Compute(g, mctree.Symmetric, mctree.Members{})
	if err != nil || tr.NumEdges() != 0 {
		t.Errorf("empty member set: %v %v", tr, err)
	}
}

func TestUnreachableMember(t *testing.T) {
	g, err := topo.Line(4, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetLinkDown(1, 2, true); err != nil {
		t.Fatal(err)
	}
	members := symMembers(0, 3)
	for _, alg := range allAlgorithms() {
		if _, err := alg.Compute(g, mctree.Symmetric, members); !errors.Is(err, ErrUnreachable) {
			t.Errorf("%s: err = %v, want ErrUnreachable", alg.Name(), err)
		}
	}
}

func TestInvalidKindRejected(t *testing.T) {
	g := grid(t)
	for _, alg := range allAlgorithms() {
		if _, err := alg.Compute(g, mctree.Kind(9), symMembers(0, 1)); err == nil {
			t.Errorf("%s accepted invalid kind", alg.Name())
		}
	}
}

func TestSPHLineIsExact(t *testing.T) {
	// On a path graph the Steiner tree is the sub-path between extremes.
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := (SPH{}).Compute(g, mctree.Symmetric, symMembers(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != 3 || tr.Cost(g) != 30*time.Microsecond {
		t.Errorf("tree = %v cost %v", tr, tr.Cost(g))
	}
}

func TestKMBMatchesSPHOnSimpleCases(t *testing.T) {
	g := grid(t)
	members := symMembers(0, 3, 15)
	sph, err := (SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	kmb, err := (KMB{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	// Both are 2-approximations; on a uniform grid with corner members
	// their costs must be within 2x of each other and span the members.
	if kmb.Cost(g) > 2*sph.Cost(g) || sph.Cost(g) > 2*kmb.Cost(g) {
		t.Errorf("cost gap too large: sph=%v kmb=%v", sph.Cost(g), kmb.Cost(g))
	}
}

func TestSPTUsesShortestPaths(t *testing.T) {
	g := grid(t) // uniform delays: SPT distance == hop distance * 10µs
	members := mctree.Members{0: mctree.Sender, 15: mctree.Receiver, 3: mctree.Receiver}
	tr, err := (SPT{}).Compute(g, mctree.Asymmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.PathDelay(g, 0, 15); d != 60*time.Microsecond {
		t.Errorf("delay root->15 over tree = %v, want 60µs (shortest)", d)
	}
	if d := tr.PathDelay(g, 0, 3); d != 30*time.Microsecond {
		t.Errorf("delay root->3 over tree = %v, want 30µs", d)
	}
}

func TestCoreSelection(t *testing.T) {
	g, err := topo.Line(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	cb := NewCoreBased()
	core, err := cb.SelectCore(g, symMembers(0, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if core != 2 {
		t.Errorf("core = %d, want middle switch 2", core)
	}
	pinned := &CoreBased{Core: 4}
	tr, err := pinned.Compute(g, mctree.ReceiverOnly, symMembers(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 4 {
		t.Errorf("pinned core root = %d", tr.Root)
	}
	if !tr.On(4) {
		t.Error("pinned core not on tree")
	}
	if _, err := cb.SelectCore(g, mctree.Members{}); err == nil {
		t.Error("core selection with no members succeeded")
	}
}

func TestIncrementalJoinGraftsWithoutRebuilding(t *testing.T) {
	g := grid(t)
	alg := NewIncremental(SPH{})
	members := symMembers(0, 3)
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	members[12] = mctree.SenderReceiver
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := updated.Validate(g, members); err != nil {
		t.Fatalf("grafted tree invalid: %v", err)
	}
	// Every old edge must survive a pure graft.
	for _, e := range base.Edges() {
		if !updated.Has(e.A, e.B) {
			t.Errorf("graft dropped edge %v", e)
		}
	}
}

func TestIncrementalLeavePrunesBranch(t *testing.T) {
	g, err := topo.Line(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewIncremental(SPH{})
	members := symMembers(0, 2, 4)
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumEdges() != 4 {
		t.Fatalf("base tree = %v", base)
	}
	delete(members, 4)
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		t.Fatal(err)
	}
	if updated.NumEdges() != 2 {
		t.Errorf("pruned tree = %v, want 0-1-2", updated)
	}
	if err := updated.Validate(g, members); err != nil {
		t.Errorf("pruned tree invalid: %v", err)
	}
}

func TestIncrementalLeaveKeepsRelayBranches(t *testing.T) {
	// Member in the middle leaves: its switch must remain as a relay.
	g, err := topo.Line(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewIncremental(SPH{})
	members := symMembers(0, 2, 4)
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	delete(members, 2)
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		t.Fatal(err)
	}
	if updated.NumEdges() != 4 {
		t.Errorf("middle leave should keep relay path: %v", updated)
	}
	if err := updated.Validate(g, members); err != nil {
		t.Errorf("tree invalid: %v", err)
	}
}

func TestIncrementalFallsBackWhenTreeInvalidated(t *testing.T) {
	g := grid(t)
	alg := NewIncremental(SPH{})
	members := symMembers(0, 15)
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	// Fail a link on the tree; update must recompute around it.
	e := base.Edges()[0]
	if err := g.SetLinkDown(e.A, e.B, true); err != nil {
		t.Fatal(err)
	}
	members[5] = mctree.SenderReceiver
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := updated.Validate(g, members); err != nil {
		t.Errorf("fallback tree invalid: %v", err)
	}
	if updated.Has(e.A, e.B) {
		t.Error("updated tree still uses failed link")
	}
}

func TestIncrementalLeaveToSingleton(t *testing.T) {
	g := grid(t)
	alg := NewIncremental(SPH{})
	members := symMembers(0, 15)
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	delete(members, 15)
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		t.Fatal(err)
	}
	if updated.NumEdges() != 0 {
		t.Errorf("singleton MC should have empty tree, got %v", updated)
	}
}

func TestIncrementalNilPrevFallsBack(t *testing.T) {
	g := grid(t)
	alg := NewIncremental(SPH{})
	members := symMembers(0, 15)
	tr, err := alg.Update(g, mctree.Symmetric, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g, members); err != nil {
		t.Errorf("fallback tree invalid: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := topo.DefaultGenConfig(40, 4)
	g, err := topo.Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		members := mctree.Members{}
		for len(members) < 6 {
			members[topo.SwitchID(rng.Intn(40))] = mctree.SenderReceiver
		}
		for _, alg := range allAlgorithms() {
			a, err := alg.Compute(g, mctree.Symmetric, members)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			b, err := alg.Compute(g, mctree.Symmetric, members.Clone())
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if !a.Equal(b) {
				t.Errorf("%s nondeterministic: %v vs %v", alg.Name(), a, b)
			}
		}
	}
}

func TestRandomGraphsAllValid(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		n := 15 + rng.Intn(50)
		g, err := topo.Waxman(topo.DefaultGenConfig(n, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		members := mctree.Members{}
		cnt := 2 + rng.Intn(8)
		for len(members) < cnt {
			members[topo.SwitchID(rng.Intn(n))] = mctree.SenderReceiver
		}
		for _, alg := range allAlgorithms() {
			tr, err := alg.Compute(g, mctree.Symmetric, members)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			if err := tr.Validate(g, members); err != nil {
				t.Fatalf("trial %d %s: %v (tree %v)", trial, alg.Name(), err, tr)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sph", "kmb", "spt", "cbt", "incremental"} {
		alg, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if alg == nil {
			t.Errorf("ByName(%q) returned nil", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
	if got := NewIncremental(SPH{}).Name(); got != "incremental(sph)" {
		t.Errorf("incremental name = %q", got)
	}
}

// TestQuickLeavesAreAnchors: every leaf of a computed tree must be a member
// (or the root/core) — no algorithm may leave dangling relay branches.
func TestQuickLeavesAreAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 12 + rng.Intn(40)
		g, err := topo.Waxman(topo.DefaultGenConfig(n, int64(trial)+500))
		if err != nil {
			t.Fatal(err)
		}
		members := mctree.Members{}
		cnt := 2 + rng.Intn(7)
		for len(members) < cnt {
			members[topo.SwitchID(rng.Intn(n))] = mctree.SenderReceiver
		}
		for _, alg := range allAlgorithms() {
			tr, err := alg.Compute(g, mctree.Symmetric, members)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			for _, s := range tr.Nodes() {
				if len(tr.Neighbors(s)) != 1 {
					continue // not a leaf
				}
				if _, isMember := members[s]; isMember || s == tr.Root {
					continue
				}
				t.Fatalf("trial %d %s: leaf %d is neither member nor root (tree %v)",
					trial, alg.Name(), s, tr)
			}
		}
	}
}

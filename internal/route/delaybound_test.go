package route

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

func TestDelayBoundedValidation(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (DelayBounded{}).Compute(g, mctree.Symmetric, symMembers(0, 2)); err == nil {
		t.Error("zero bound accepted")
	}
	if got := (DelayBounded{Bound: time.Millisecond}).Name(); got != "delay-bounded(1ms)" {
		t.Errorf("name = %q", got)
	}
}

func TestDelayBoundedLooseBoundMatchesSPH(t *testing.T) {
	// With a generous bound the constraint never bites, so the tree is a
	// cheap Steiner tree spanning the members.
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	members := symMembers(0, 3, 12, 15)
	loose := DelayBounded{Bound: time.Second}
	tr, err := loose.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g, members); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	sph, err := (SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cost(g) > 2*sph.Cost(g) {
		t.Errorf("loose-bound cost %v far above SPH %v", tr.Cost(g), sph.Cost(g))
	}
}

func TestDelayBoundedTightBoundForcesDirectPaths(t *testing.T) {
	// Line 0-1-2-3-4-5 with member set {0, 5}, root 0: any tree must use
	// the full 50µs path. A 30µs bound is unsatisfiable.
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	members := symMembers(0, 5)
	if _, err := (DelayBounded{Bound: 30 * time.Microsecond}).Compute(g, mctree.Symmetric, members); !errors.Is(err, ErrDelayUnsatisfiable) {
		t.Errorf("err = %v, want ErrDelayUnsatisfiable", err)
	}
	// Exactly-enough bound succeeds.
	tr, err := (DelayBounded{Bound: 50 * time.Microsecond}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g, members); err != nil {
		t.Error(err)
	}
}

func TestDelayBoundedBitesOnDeepGrafts(t *testing.T) {
	// SPH grafts members onto the *nearest tree point*, which can leave a
	// member far from the root even when it has a short direct path:
	//
	//   0 --1µs-- 1 --1µs-- 2     (members 0 and 2; SPH builds this first)
	//             |
	//           1.5µs
	//             |
	//   0 -----2.4µs----- 3      (member 3: graft via 1 = 2.5µs from root,
	//                             direct = 2.4µs)
	//
	// Unconstrained SPH grafts 3 at switch 1 (cheapest: 1.5µs edge), giving
	// a 2.5µs root delay. A 2.4µs bound forces the direct link.
	g := topo.New(4)
	mustAdd := func(a, b topo.SwitchID, d time.Duration) {
		t.Helper()
		if err := g.AddLink(a, b, d, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, time.Microsecond)
	mustAdd(1, 2, time.Microsecond)
	mustAdd(1, 3, 1500*time.Nanosecond)
	mustAdd(0, 3, 2400*time.Nanosecond)

	members := symMembers(0, 2, 3)
	sph, err := (SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if d := sph.PathDelay(g, 0, 3); d != 2500*time.Nanosecond {
		t.Fatalf("unconstrained delay 0->3 = %v (tree %v), want 2.5µs", d, sph)
	}
	bounded, err := (DelayBounded{Bound: 2400 * time.Nanosecond}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := bounded.Validate(g, members); err != nil {
		t.Fatalf("bounded tree invalid: %v (tree %v)", err, bounded)
	}
	if d := bounded.PathDelay(g, 0, 3); d > 2400*time.Nanosecond {
		t.Errorf("bounded delay 0->3 = %v exceeds bound (tree %v)", d, bounded)
	}
	if d := bounded.PathDelay(g, 0, 2); d > 2400*time.Nanosecond {
		t.Errorf("bounded delay 0->2 = %v exceeds bound", d)
	}
	if bounded.Cost(g) < sph.Cost(g) {
		t.Errorf("bounded tree cheaper than unconstrained: %v < %v", bounded.Cost(g), sph.Cost(g))
	}
}

func TestDelayBoundedAsymmetricRootsAtSender(t *testing.T) {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	members := mctree.Members{4: mctree.Sender, 0: mctree.Receiver, 8: mctree.Receiver}
	tr, err := (DelayBounded{Bound: time.Second}).Compute(g, mctree.Asymmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 4 {
		t.Errorf("root = %d", tr.Root)
	}
}

func TestDelayBoundedRandomGraphsHonourBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 15 + rng.Intn(40)
		g, err := topo.Waxman(topo.DefaultGenConfig(n, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		members := mctree.Members{}
		for len(members) < 5 {
			members[topo.SwitchID(rng.Intn(n))] = mctree.SenderReceiver
		}
		root := members.IDs()[0]
		spt := g.ShortestPaths(root)
		// Bound = 1.2× the worst direct distance: always satisfiable, often
		// binding.
		var worst time.Duration
		for _, m := range members.IDs() {
			if spt.Delay[m] > worst {
				worst = spt.Delay[m]
			}
		}
		bound := worst + worst/5
		alg := DelayBounded{Bound: bound}
		tr, err := alg.Compute(g, mctree.Symmetric, members)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(g, members); err != nil {
			t.Fatalf("trial %d: invalid tree: %v", trial, err)
		}
		for _, m := range members.IDs() {
			if m == root {
				continue
			}
			if d := tr.PathDelay(g, root, m); d < 0 || d > bound {
				t.Fatalf("trial %d: member %d delay %v > bound %v (tree %v)", trial, m, d, bound, tr)
			}
		}
		// Tightest satisfiable bound also works (pure SPT fallback).
		tight := DelayBounded{Bound: worst}
		tr2, err := tight.Compute(g, mctree.Symmetric, members)
		if err != nil {
			t.Fatalf("trial %d tight: %v", trial, err)
		}
		for _, m := range members.IDs() {
			if d := tr2.PathDelay(g, root, m); d > worst {
				t.Fatalf("trial %d tight: member %d delay %v > %v", trial, m, d, worst)
			}
		}
		// Below the tightest bound: must fail.
		if worst > time.Microsecond {
			impossible := DelayBounded{Bound: worst - time.Microsecond}
			if _, err := impossible.Compute(g, mctree.Symmetric, members); err == nil {
				// Only an error when the worst member actually defines it.
				sawWorst := false
				for _, m := range members.IDs() {
					if spt.Delay[m] == worst {
						sawWorst = true
					}
				}
				if sawWorst {
					t.Fatalf("trial %d: impossible bound accepted", trial)
				}
			}
		}
	}
}

func TestDelayBoundedUnderProtocolUse(t *testing.T) {
	// Update must recompute (not incrementally patch) so bounds hold.
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	alg := DelayBounded{Bound: time.Second}
	members := symMembers(0, 8)
	prev, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		t.Fatal(err)
	}
	members[2] = mctree.SenderReceiver
	next, err := alg.Update(g, mctree.Symmetric, members, prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(g, members); err != nil {
		t.Error(err)
	}
}

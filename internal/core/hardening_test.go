package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// TestWireEncodedLSAsConvergeIdentically runs the same scenario with
// in-memory and binary-encoded LSAs and requires identical outcomes.
func TestWireEncodedLSAsConvergeIdentically(t *testing.T) {
	scenario := func(encode bool) (Metrics, string) {
		g, err := topo.Waxman(topo.DefaultGenConfig(20, 31))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		net, err := flood.New(k, g, testPerHop, flood.Direct)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDomain(k, Config{
			Net: net, ComputeTime: testTc, Algorithm: route.SPH{}, EncodeLSAs: encode,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 6; i++ {
			d.Join(sim.Time(rng.Intn(int(testTc))), topo.SwitchID(rng.Intn(20)), 4, mctree.SenderReceiver)
		}
		// A link failure exercises non-MC LSA encoding too.
		var fail topo.Link
		for _, l := range g.Links() {
			trial := g.Clone()
			if err := trial.SetLinkDown(l.A, l.B, true); err != nil {
				t.Fatal(err)
			}
			if trial.Connected() {
				fail = l
				break
			}
		}
		d.FailLink(50*time.Millisecond, fail.A, fail.B)
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Fatalf("encode=%v: %v", encode, err)
		}
		snap, _ := d.Switch(0).Connection(4)
		return *d.Metrics(), snap.Topology.String()
	}
	mPlain, tPlain := scenario(false)
	mWire, tWire := scenario(true)
	// ComputeNanos is wall clock, deterministic protocol or not.
	mPlain.ComputeNanos, mWire.ComputeNanos = 0, 0
	if mPlain != mWire {
		t.Errorf("metrics diverge: %+v vs %+v", mPlain, mWire)
	}
	if tPlain != tWire {
		t.Errorf("topologies diverge: %s vs %s", tPlain, tWire)
	}
}

// TestLinkFailureFansOutPerAffectedConnection checks the paper's Figure 2
// accounting: one link event = one non-MC LSA + k MC LSAs, where k is the
// number of connections whose topology uses the link.
func TestLinkFailureFansOutPerAffectedConnection(t *testing.T) {
	// A ladder: short path 0-1-2-3 plus detour 0-4-5-3, so failing the
	// middle link keeps the graph connected.
	gr := topo.New(6)
	for _, e := range [][2]topo.SwitchID{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}} {
		if err := gr.AddLink(e[0], e[1], 10*time.Microsecond, 1); err != nil {
			t.Fatal(err)
		}
	}
	f := newFixture(t, gr)
	// Three connections between 0 and 3: two along the short path (via 1,2)
	// and one that ends up elsewhere.
	for conn := lsa.ConnID(1); conn <= 3; conn++ {
		f.d.Join(sim.Time(conn)*time.Millisecond, 0, conn, mctree.SenderReceiver)
		f.d.Join(sim.Time(conn)*time.Millisecond+500*time.Microsecond, 3, conn, mctree.SenderReceiver)
	}
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// Count connections whose tree uses link (1,2).
	k := 0
	for conn := lsa.ConnID(1); conn <= 3; conn++ {
		snap, _ := f.d.Switch(1).Connection(conn)
		if snap.Topology.Has(1, 2) {
			k++
		}
	}
	if k == 0 {
		t.Skip("no tree crossed the target link")
	}
	m0 := *f.d.Metrics()
	pre := f.net.Floodings()
	f.d.FailLink(50*time.Millisecond, 1, 2)
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	m1 := *f.d.Metrics()
	if got := m1.NonMCLSAs - m0.NonMCLSAs; got != 1 {
		t.Errorf("non-MC LSAs = %d, want 1", got)
	}
	// The event itself floods exactly k MC LSAs; triggered proposals may
	// add more, but at least k and exactly k event LSAs.
	if got := m1.Events - m0.Events; got != uint64(k) {
		t.Errorf("MC link events = %d, want k=%d", got, k)
	}
	if f.net.Floodings()-pre < uint64(k)+1 {
		t.Errorf("floodings = %d, want at least k+1=%d", f.net.Floodings()-pre, k+1)
	}
}

// TestPartitionedComponentsStayInternallyConsistent verifies behaviour
// under network partitioning (the paper defers *recovery* to future work;
// the protocol must still keep each side internally consistent).
func TestPartitionedComponentsStayInternallyConsistent(t *testing.T) {
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	// Partition first: switch 2 detects the cut.
	f.d.FailLink(0, 2, 3)
	// Then a fresh connection comes up on each side.
	f.d.Join(time.Millisecond, 0, 7, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 1, 7, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 4, 7, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 5, 7, mctree.SenderReceiver)
	f.run(t)

	// Global convergence is impossible; each side must agree internally.
	sideA := []topo.SwitchID{0, 1, 2}
	sideB := []topo.SwitchID{3, 4, 5}
	for _, side := range [][]topo.SwitchID{sideA, sideB} {
		var ref *Snapshot
		for _, s := range side {
			snap, ok := f.d.Switch(s).Connection(7)
			if !ok {
				t.Fatalf("switch %d has no state", s)
			}
			if !snap.R.Equal(snap.E) {
				t.Errorf("switch %d: R=%s E=%s diverge within component", s, snap.R, snap.E)
			}
			if ref == nil {
				r := snap
				ref = &r
				continue
			}
			if !snap.C.Equal(ref.C) || !snap.Members.Equal(ref.Members) {
				t.Errorf("switch %d disagrees with its component", s)
			}
			if (snap.Topology == nil) != (ref.Topology == nil) ||
				(snap.Topology != nil && !snap.Topology.Equal(ref.Topology)) {
				t.Errorf("switch %d topology differs within component", s)
			}
		}
	}
	// Side A's members are {0,1}; side B's are {4,5}.
	a, _ := f.d.Switch(0).Connection(7)
	if len(a.Members) != 2 || a.Members[0] == 0 || a.Members[1] == 0 {
		t.Errorf("side A members = %v", a.Members)
	}
	b, _ := f.d.Switch(5).Connection(7)
	if len(b.Members) != 2 || b.Members[4] == 0 || b.Members[5] == 0 {
		t.Errorf("side B members = %v", b.Members)
	}
}

// TestFuzzRandomScenariosConverge drives many random scenarios — mixed
// bursty/sparse joins and leaves on multiple connections, with optional
// link failures — and requires global convergence with valid trees every
// time, under both from-scratch and incremental algorithms.
func TestFuzzRandomScenariosConverge(t *testing.T) {
	algs := []route.Algorithm{route.SPH{}, route.NewIncremental(route.SPH{}), route.KMB{}}
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed*7919 + 13))
		n := 10 + rng.Intn(30)
		g, err := topo.Waxman(topo.DefaultGenConfig(n, seed+100))
		if err != nil {
			t.Fatal(err)
		}
		alg := algs[int(seed)%len(algs)]

		k := sim.NewKernel()
		net, err := flood.New(k, g, testPerHop, flood.Direct)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDomain(k, Config{
			Net: net, ComputeTime: testTc, Algorithm: alg,
			Kinds: map[lsa.ConnID]mctree.Kind{1: mctree.Symmetric, 2: mctree.ReceiverOnly},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Random schedule: 6-16 membership events over two connections,
		// spread over a mix of tight and loose gaps.
		members := map[lsa.ConnID]map[topo.SwitchID]bool{1: {}, 2: {}}
		at := sim.Time(0)
		nEvents := 6 + rng.Intn(11)
		for i := 0; i < nEvents; i++ {
			at += sim.Time(rng.Intn(int(4 * testTc)))
			conn := lsa.ConnID(1 + rng.Intn(2))
			ms := members[conn]
			if len(ms) > 0 && rng.Intn(3) == 0 {
				ids := make([]topo.SwitchID, 0, len(ms))
				for s := range ms {
					ids = append(ids, s)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				s := ids[rng.Intn(len(ids))]
				d.Leave(at, s, conn)
				delete(ms, s)
			} else {
				s := topo.SwitchID(rng.Intn(n))
				if ms[s] {
					continue
				}
				role := mctree.SenderReceiver
				if conn == 2 {
					role = mctree.Receiver
				}
				d.Join(at, s, conn, role)
				ms[s] = true
			}
		}
		// Optionally fail one redundant link — or a whole redundant switch —
		// mid-run.
		switch rng.Intn(3) {
		case 0:
			for _, l := range g.Links() {
				trial := g.Clone()
				if err := trial.SetLinkDown(l.A, l.B, true); err != nil {
					t.Fatal(err)
				}
				if trial.Connected() {
					d.FailLink(at/2, l.A, l.B)
					break
				}
			}
		case 1:
			for cand := 0; cand < n; cand++ {
				s := topo.SwitchID(cand)
				if members[1][s] || members[2][s] {
					continue // keep the victim a non-member for fuzz simplicity
				}
				trial := g.Clone()
				for _, nb := range trial.Neighbors(s) {
					if err := trial.SetLinkDown(s, nb, true); err != nil {
						t.Fatal(err)
					}
				}
				other := topo.SwitchID((cand + 1) % n)
				if len(trial.Component(other)) == n-1 {
					d.FailSwitch(at/2, s)
					break
				}
			}
		}
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Errorf("seed %d (n=%d, %s): %v", seed, n, alg.Name(), err)
		}
	}
}

// TestNodalFailure exercises the paper's "nodal events": a member switch
// dies, every incident link fails (detected by the surviving neighbours),
// and the surviving majority converges on a tree spanning the members it
// can still reach.
func TestNodalFailure(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(24, 61))
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	members := []topo.SwitchID{2, 7, 13, 19}
	for i, s := range members {
		f.d.Join(sim.Time(i)*2*time.Millisecond, s, 1, mctree.SenderReceiver)
	}
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatal(err)
	}

	// Pick a victim member whose death keeps the rest connected.
	victim := topo.NoSwitch
	for _, cand := range members {
		trial := g.Clone()
		for _, nb := range trial.Neighbors(cand) {
			if err := trial.SetLinkDown(cand, nb, true); err != nil {
				t.Fatal(err)
			}
		}
		comp := trial.Component(pickOther(members, cand))
		if len(comp) == g.NumSwitches()-1 {
			victim = cand
			break
		}
	}
	if victim == topo.NoSwitch {
		t.Skip("no member is safely removable in this graph")
	}

	f.d.FailSwitch(f.k.Now()+5*time.Millisecond, victim)
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("survivors did not converge: %v", err)
	}
	// A survivor's installed topology spans the surviving members and
	// avoids the dead switch entirely.
	witness := pickOther(members, victim)
	snap, _ := f.d.Switch(witness).Connection(1)
	if snap.Topology.On(victim) {
		t.Errorf("repaired tree still crosses dead switch %d: %v", victim, snap.Topology)
	}
	survivors := mctree.Members{}
	for _, m := range members {
		if m != victim {
			survivors[m] = mctree.SenderReceiver
		}
	}
	if err := snap.Topology.Validate(g, survivors); err != nil {
		t.Errorf("survivor tree invalid: %v", err)
	}
	// The dead member is still listed (nobody can speak for it — the
	// application layer would eventually time it out), but excluded from
	// the installed topology.
	if _, listed := snap.Members[victim]; !listed {
		t.Error("dead member vanished from the member list without a leave event")
	}
}

func pickOther(members []topo.SwitchID, not topo.SwitchID) topo.SwitchID {
	for _, m := range members {
		if m != not {
			return m
		}
	}
	return topo.NoSwitch
}

// TestReoptimizationOnRecovery exercises §3.5's re-optimization policy: a
// failed tree link forces a detour; when the link recovers, a domain with
// the policy enabled re-converges on the cheaper tree, while the default
// domain keeps the detour (recoveries are not adverse changes).
func TestReoptimizationOnRecovery(t *testing.T) {
	scenario := func(threshold float64) (before, after *mctree.Tree, reopts uint64) {
		g, err := topo.Ring(8, 10*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		net, err := flood.New(k, g, testPerHop, flood.Direct)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDomain(k, Config{
			Net: net, ComputeTime: testTc, Algorithm: route.SPH{},
			ReoptimizeThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Join(0, 0, 1, mctree.SenderReceiver)
		d.Join(time.Millisecond, 2, 1, mctree.SenderReceiver)
		d.FailLink(5*time.Millisecond, 1, 2) // tree 0-1-2 must detour
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		snap, _ := d.Switch(5).Connection(1)
		before = snap.Topology

		d.RestoreLink(k.Now()+5*time.Millisecond, 1, 2)
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		snap, _ = d.Switch(5).Connection(1)
		return before, snap.Topology, d.Metrics().ReoptChecks
	}

	// Default: no re-optimization; the detour tree survives recovery.
	before, after, reopts := scenario(0)
	if before.NumEdges() != 6 {
		t.Fatalf("detour tree = %v, want the 6-hop way around", before)
	}
	if !after.Equal(before) {
		t.Errorf("default policy re-optimized: %v -> %v", before, after)
	}
	if reopts != 0 {
		t.Errorf("default policy ran %d re-opt checks", reopts)
	}

	// 10%% threshold: the 6-hop detour is 3x the fresh 2-hop tree.
	_, after, reopts = scenario(0.1)
	if after.NumEdges() != 2 || !after.Has(1, 2) {
		t.Errorf("re-optimized tree = %v, want 0-1-2 restored", after)
	}
	if reopts == 0 {
		t.Error("no re-opt checks ran")
	}
}

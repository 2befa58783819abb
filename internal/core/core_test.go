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

const (
	testTc     = 100 * time.Microsecond
	testPerHop = 2 * time.Microsecond
)

type fixture struct {
	k   *sim.Kernel
	net *flood.Network
	d   *Domain
}

func newFixture(t *testing.T, g *topo.Graph, opts ...func(*Config)) *fixture {
	t.Helper()
	k := sim.NewKernel()
	net, err := flood.New(k, g, testPerHop, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}}
	for _, o := range opts {
		o(&cfg)
	}
	d, err := NewDomain(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, net: net, d: d}
}

func (f *fixture) run(t *testing.T) {
	t.Helper()
	f.k.Run()
}

func lineFixture(t *testing.T, n int) *fixture {
	t.Helper()
	g, err := topo.Line(n, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return newFixture(t, g)
}

func TestNewDomainValidation(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 0, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(k, Config{Algorithm: route.SPH{}}); err == nil {
		t.Error("missing Net accepted")
	}
	if _, err := NewDomain(k, Config{Net: net}); err == nil {
		t.Error("missing Algorithm accepted")
	}
	if _, err := NewDomain(k, Config{Net: net, Algorithm: route.SPH{}, ComputeTime: -1}); err == nil {
		t.Error("negative Tc accepted")
	}
}

func TestSingleJoinCreatesConnectionEverywhere(t *testing.T) {
	f := lineFixture(t, 4)
	f.d.Join(0, 1, 7, mctree.SenderReceiver)
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	for s := 0; s < 4; s++ {
		snap, ok := f.d.Switch(topo.SwitchID(s)).Connection(7)
		if !ok {
			t.Fatalf("switch %d has no state for conn 7", s)
		}
		if len(snap.Members) != 1 || snap.Members[1] != mctree.SenderReceiver {
			t.Errorf("switch %d members = %v", s, snap.Members)
		}
		if snap.Topology == nil || snap.Topology.NumEdges() != 0 {
			t.Errorf("switch %d topology = %v, want empty tree", s, snap.Topology)
		}
	}
	m := f.d.Metrics()
	if m.Events != 1 || m.Computations != 1 {
		t.Errorf("events=%d computations=%d, want 1,1", m.Events, m.Computations)
	}
	if f.net.Floodings() != 1 {
		t.Errorf("floodings = %d, want 1", f.net.Floodings())
	}
}

func TestSparseEventsCostOneComputationAndFloodEach(t *testing.T) {
	// This is the paper's Experiment 3 in miniature: well-separated events
	// are handled individually — one computation, one flooding per event.
	f := lineFixture(t, 5)
	gap := 10 * time.Millisecond // ≫ round
	f.d.Join(0*gap, 0, 1, mctree.SenderReceiver)
	f.d.Join(1*gap, 4, 1, mctree.SenderReceiver)
	f.d.Join(2*gap, 2, 1, mctree.SenderReceiver)
	f.d.Leave(3*gap, 4, 1)
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	m := f.d.Metrics()
	if m.Events != 4 {
		t.Fatalf("events = %d", m.Events)
	}
	if m.Computations != 4 {
		t.Errorf("computations = %d, want 4 (one per sparse event)", m.Computations)
	}
	if f.net.Floodings() != 4 {
		t.Errorf("floodings = %d, want 4", f.net.Floodings())
	}
	if m.Withdrawn != 0 {
		t.Errorf("withdrawn = %d, want 0 for sparse events", m.Withdrawn)
	}
	snap, _ := f.d.Switch(0).Connection(1)
	if len(snap.Members) != 2 {
		t.Errorf("final members = %v", snap.Members)
	}
	if snap.Topology == nil || snap.Topology.NumEdges() != 2 {
		t.Errorf("final topology = %v, want path 0-1-2", snap.Topology)
	}
}

func TestBurstyEventsConverge(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(30, 17))
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	// 8 conflicting joins within a fraction of Tc.
	rng := rand.New(rand.NewSource(3))
	joined := map[topo.SwitchID]bool{}
	for len(joined) < 8 {
		s := topo.SwitchID(rng.Intn(30))
		if joined[s] {
			continue
		}
		joined[s] = true
		f.d.Join(sim.Time(rng.Intn(int(testTc/2))), s, 9, mctree.SenderReceiver)
	}
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	snap, _ := f.d.Switch(0).Connection(9)
	if len(snap.Members) != 8 {
		t.Fatalf("members = %d, want 8", len(snap.Members))
	}
	if snap.Topology == nil {
		t.Fatal("no topology installed")
	}
	if err := snap.Topology.Validate(g, snap.Members); err != nil {
		t.Errorf("topology invalid: %v", err)
	}
	m := f.d.Metrics()
	if m.Computations >= 8*30 {
		t.Errorf("computations = %d — looks like per-switch recomputation (brute force)", m.Computations)
	}
	t.Logf("burst of 8 events: %d computations, %d floodings, %d withdrawn",
		m.Computations, f.net.Floodings(), m.Withdrawn)
}

func TestLastMemberLeaveDestroysState(t *testing.T) {
	f := lineFixture(t, 3)
	f.d.Join(0, 0, 5, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 2, 5, mctree.SenderReceiver)
	f.d.Leave(2*time.Millisecond, 0, 5)
	f.d.Leave(3*time.Millisecond, 2, 5)
	f.run(t)

	for s := 0; s < 3; s++ {
		if ids := f.d.Switch(topo.SwitchID(s)).Connections(); len(ids) != 0 {
			t.Errorf("switch %d still holds live connections %v", s, ids)
		}
	}
	if err := f.d.CheckConverged(); err != nil {
		t.Errorf("converged check after destruction: %v", err)
	}
}

func TestConnectionResurrection(t *testing.T) {
	f := lineFixture(t, 3)
	f.d.Join(0, 0, 5, mctree.SenderReceiver)
	f.d.Leave(time.Millisecond, 0, 5)
	f.d.Join(2*time.Millisecond, 1, 5, mctree.Receiver)
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	snap, ok := f.d.Switch(2).Connection(5)
	if !ok {
		t.Fatal("no state after resurrection")
	}
	if len(snap.Members) != 1 || snap.Members[1] != mctree.Receiver {
		t.Errorf("members = %v", snap.Members)
	}
	// Event counters persisted across the dormant phase.
	if snap.R.Sum() != 3 {
		t.Errorf("R sum = %d, want 3 (join+leave+join)", snap.R.Sum())
	}
}

func TestLinkFailureRepairsTopology(t *testing.T) {
	// Ring so the tree can route around the failure.
	g, err := topo.Ring(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	f.d.Join(0, 0, 3, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 1, 3, mctree.SenderReceiver)
	f.d.Join(2*time.Millisecond, 2, 3, mctree.SenderReceiver)
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("setup not converged: %v", err)
	}
	snap, _ := f.d.Switch(0).Connection(3)
	if !snap.Topology.Has(0, 1) || !snap.Topology.Has(1, 2) {
		t.Fatalf("unexpected initial tree %v", snap.Topology)
	}
	preNonMC := f.d.Metrics().NonMCLSAs
	preMC := f.d.Metrics().MCLSAs

	f.d.FailLink(5*time.Millisecond, 1, 2)
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged after failure: %v", err)
	}
	snap, _ = f.d.Switch(4).Connection(3)
	if snap.Topology.Has(1, 2) {
		t.Errorf("repaired tree still uses failed link: %v", snap.Topology)
	}
	if err := snap.Topology.Validate(g, snap.Members); err != nil {
		t.Errorf("repaired tree invalid: %v", err)
	}
	m := f.d.Metrics()
	if m.NonMCLSAs != preNonMC+1 {
		t.Errorf("non-MC LSAs = %d, want exactly one more than %d", m.NonMCLSAs, preNonMC)
	}
	if m.MCLSAs <= preMC {
		t.Error("no MC LSA flooded for the affected connection")
	}
	// Every switch's unicast image knows the link is down.
	for s := 0; s < 6; s++ {
		l, _ := f.d.Switch(topo.SwitchID(s)).Unicast().Image().Link(1, 2)
		if !l.Down {
			t.Errorf("switch %d image missed the link failure", s)
		}
	}
}

func TestLinkFailureOffTreeTriggersNoMCLSAs(t *testing.T) {
	g, err := topo.Ring(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	f.d.Join(0, 0, 3, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 1, 3, mctree.SenderReceiver)
	f.run(t)
	preMC := f.d.Metrics().MCLSAs
	// Link (3,4) is not on the 0-1 tree.
	f.d.FailLink(5*time.Millisecond, 3, 4)
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	if m := f.d.Metrics(); m.MCLSAs != preMC {
		t.Errorf("MC LSAs = %d, want unchanged %d for off-tree failure", m.MCLSAs, preMC)
	}
}

func TestAllThreeKindsConverge(t *testing.T) {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[lsa.ConnID]mctree.Kind{
		1: mctree.Symmetric,
		2: mctree.ReceiverOnly,
		3: mctree.Asymmetric,
	}
	f := newFixture(t, g, func(c *Config) { c.Kinds = kinds })

	// Symmetric teleconference.
	f.d.Join(0, 0, 1, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 8, 1, mctree.SenderReceiver)
	// Receiver-only group.
	f.d.Join(2*time.Millisecond, 2, 2, mctree.Receiver)
	f.d.Join(3*time.Millisecond, 6, 2, mctree.Receiver)
	// Asymmetric broadcast: sender first, then receivers.
	f.d.Join(4*time.Millisecond, 4, 3, mctree.Sender)
	f.d.Join(5*time.Millisecond, 0, 3, mctree.Receiver)
	f.d.Join(6*time.Millisecond, 8, 3, mctree.Receiver)
	f.run(t)

	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	for conn, kind := range kinds {
		snap, ok := f.d.Switch(0).Connection(conn)
		if !ok {
			t.Fatalf("conn %d missing", conn)
		}
		if snap.Kind != kind || snap.Topology.Kind != kind {
			t.Errorf("conn %d kind = %v/%v, want %v", conn, snap.Kind, snap.Topology.Kind, kind)
		}
	}
	asym, _ := f.d.Switch(3).Connection(3)
	if asym.Topology.Root != 4 {
		t.Errorf("asymmetric tree root = %d, want sender 4", asym.Topology.Root)
	}
}

func TestMultipleConnectionsAreIndependent(t *testing.T) {
	f := lineFixture(t, 5)
	for conn := lsa.ConnID(1); conn <= 3; conn++ {
		f.d.Join(0, 0, conn, mctree.SenderReceiver)
		f.d.Join(sim.Time(conn)*50*time.Microsecond, 4, conn, mctree.SenderReceiver)
	}
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	for conn := lsa.ConnID(1); conn <= 3; conn++ {
		snap, ok := f.d.Switch(2).Connection(conn)
		if !ok || len(snap.Members) != 2 {
			t.Errorf("conn %d: %v", conn, snap.Members)
		}
	}
}

func TestIncrementalAlgorithmUnderProtocol(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(25, 5))
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g, func(c *Config) { c.Algorithm = route.NewIncremental(route.SPH{}) })
	rng := rand.New(rand.NewSource(1))
	at := sim.Time(0)
	members := map[topo.SwitchID]bool{}
	for i := 0; i < 6; i++ {
		s := topo.SwitchID(rng.Intn(25))
		if members[s] {
			continue
		}
		members[s] = true
		f.d.Join(at, s, 1, mctree.SenderReceiver)
		at += 3 * time.Millisecond
	}
	// A couple of leaves, in deterministic order.
	ids := make([]topo.SwitchID, 0, len(members))
	for s := range members {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, s := range ids {
		if len(members) <= 3 {
			break
		}
		f.d.Leave(at, s, 1)
		at += 3 * time.Millisecond
		delete(members, s)
	}
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	snap, _ := f.d.Switch(0).Connection(1)
	if err := snap.Topology.Validate(g, snap.Members); err != nil {
		t.Errorf("final incremental topology invalid: %v", err)
	}
}

func TestEGeqRInvariantThroughout(t *testing.T) {
	// E must dominate R at every switch whenever the simulation is paused.
	g, err := topo.Waxman(topo.DefaultGenConfig(20, 8))
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		f.d.Join(sim.Time(rng.Intn(int(testTc))), topo.SwitchID(rng.Intn(20)), 2, mctree.SenderReceiver)
	}
	deadline := sim.Time(time.Second)
	for step := sim.Time(50 * time.Microsecond); step < deadline; step += 50 * time.Microsecond {
		f.k.RunUntil(step)
		for s := 0; s < 20; s++ {
			if snap, ok := f.d.Switch(topo.SwitchID(s)).Connection(2); ok {
				if !snap.E.Geq(snap.R) {
					t.Fatalf("at %v switch %d: E=%s does not dominate R=%s", step, s, snap.E, snap.R)
				}
			}
		}
		if f.k.Pending() == 0 {
			break
		}
	}
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (Metrics, uint64, string) {
		g, err := topo.Waxman(topo.DefaultGenConfig(20, 21))
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		net, err := flood.New(k, g, testPerHop, flood.Direct)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDomain(k, Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 7; i++ {
			d.Join(sim.Time(rng.Intn(int(testTc))), topo.SwitchID(rng.Intn(20)), 3, mctree.SenderReceiver)
		}
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		snap, _ := d.Switch(0).Connection(3)
		return *d.Metrics(), net.Floodings(), snap.Topology.String()
	}
	m1, fl1, t1 := runOnce()
	m2, fl2, t2 := runOnce()
	// ComputeNanos is wall clock, deterministic protocol or not.
	m1.ComputeNanos, m2.ComputeNanos = 0, 0
	if m1 != m2 || fl1 != fl2 || t1 != t2 {
		t.Errorf("replay diverged: %+v/%d/%s vs %+v/%d/%s", m1, fl1, t1, m2, fl2, t2)
	}
}

func TestTracerObservesProtocol(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tr := &CollectTracer{}
	f := newFixture(t, g, func(c *Config) { c.Tracer = tr })
	f.d.Join(0, 0, 1, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 2, 1, mctree.SenderReceiver)
	f.run(t)

	if tr.Count(TraceEvent) != 2 {
		t.Errorf("event traces = %d", tr.Count(TraceEvent))
	}
	if tr.Count(TraceCompute) != 2 || tr.Count(TraceFlood) != 2 {
		t.Errorf("compute=%d flood=%d", tr.Count(TraceCompute), tr.Count(TraceFlood))
	}
	if tr.Count(TraceInstall) == 0 || tr.Count(TraceRecv) == 0 {
		t.Error("missing install/recv traces")
	}
	for _, e := range tr.Entries {
		if e.String() == "" {
			t.Fatal("empty trace string")
		}
	}
}

func TestHopByHopFloodingMode(t *testing.T) {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, testPerHop, flood.HopByHop)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}})
	if err != nil {
		t.Fatal(err)
	}
	d.Join(0, 0, 1, mctree.SenderReceiver)
	d.Join(50*time.Microsecond, 8, 1, mctree.SenderReceiver)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatalf("not converged over hop-by-hop flooding: %v", err)
	}
}

func TestLinkRecoveryReoptimizesNothingButImages(t *testing.T) {
	g, err := topo.Ring(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, g)
	f.d.Join(0, 0, 1, mctree.SenderReceiver)
	f.d.Join(time.Millisecond, 2, 1, mctree.SenderReceiver)
	f.d.FailLink(2*time.Millisecond, 0, 1)
	f.d.RestoreLink(10*time.Millisecond, 0, 1)
	f.run(t)
	if err := f.d.CheckConverged(); err != nil {
		t.Fatalf("not converged: %v", err)
	}
	for s := 0; s < 5; s++ {
		l, _ := f.d.Switch(topo.SwitchID(s)).Unicast().Image().Link(0, 1)
		if l.Down {
			t.Errorf("switch %d image missed recovery", s)
		}
	}
}

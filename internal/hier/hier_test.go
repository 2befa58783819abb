package hier

import (
	"errors"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/deliver"
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

// fourAreas builds a 32-switch network: four 8-switch areas (each a line
// hanging off its gateway) with gateways 0, 8, 16, 24 in a backbone ring.
func fourAreas(t *testing.T) (*topo.Graph, []AreaSpec) {
	t.Helper()
	g := topo.New(32)
	var areas []AreaSpec
	for a := 0; a < 4; a++ {
		base := topo.SwitchID(a * 8)
		var ids []topo.SwitchID
		for i := 0; i < 8; i++ {
			ids = append(ids, base+topo.SwitchID(i))
		}
		// Line inside the area plus one chord for redundancy.
		for i := 0; i < 7; i++ {
			if err := g.AddLink(base+topo.SwitchID(i), base+topo.SwitchID(i+1), 10*time.Microsecond, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddLink(base, base+4, 25*time.Microsecond, 1); err != nil {
			t.Fatal(err)
		}
		areas = append(areas, AreaSpec{Switches: ids, Gateway: base})
	}
	for a := 0; a < 4; a++ {
		from := topo.SwitchID(a * 8)
		to := topo.SwitchID(((a + 1) % 4) * 8)
		if err := g.AddLink(from, to, 50*time.Microsecond, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g, areas
}

func newDomain(t *testing.T, g *topo.Graph, areas []AreaSpec) (*sim.Kernel, *Domain) {
	t.Helper()
	k := sim.NewKernel()
	d, err := NewDomain(k, Config{Global: g, Areas: areas, PerHop: testPerHop, Tc: testTc})
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestPartitionValidation(t *testing.T) {
	g, areas := fourAreas(t)
	k := sim.NewKernel()

	if _, err := NewDomain(k, Config{Areas: areas}); err == nil {
		t.Error("missing global graph accepted")
	}
	if _, err := NewDomain(k, Config{Global: g, Areas: areas[:1]}); err == nil {
		t.Error("single area accepted")
	}
	// Duplicate switch across areas.
	dup := append([]AreaSpec(nil), areas...)
	dup[1] = AreaSpec{Switches: append([]topo.SwitchID{0}, areas[1].Switches...), Gateway: 8}
	if _, err := NewDomain(k, Config{Global: g, Areas: dup}); err == nil {
		t.Error("overlapping areas accepted")
	}
	// Missing switch.
	short := append([]AreaSpec(nil), areas...)
	short[3] = AreaSpec{Switches: areas[3].Switches[:7], Gateway: 24}
	if _, err := NewDomain(k, Config{Global: g, Areas: short}); err == nil {
		t.Error("incomplete partition accepted")
	}
	// Gateway outside its area.
	badGw := append([]AreaSpec(nil), areas...)
	badGw[0] = AreaSpec{Switches: areas[0].Switches, Gateway: 9}
	if _, err := NewDomain(k, Config{Global: g, Areas: badGw}); err == nil {
		t.Error("foreign gateway accepted")
	}
	// Inter-area link not between gateways.
	g2 := g.Clone()
	if err := g2.AddLink(1, 9, time.Microsecond, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(k, Config{Global: g2, Areas: areas}); err == nil {
		t.Error("non-gateway inter-area link accepted")
	}
	// Empty area.
	empty := append([]AreaSpec(nil), areas...)
	empty = append(empty, AreaSpec{})
	if _, err := NewDomain(k, Config{Global: g, Areas: empty}); err == nil {
		t.Error("empty area accepted")
	}
}

func TestGatewayCannotHostMembers(t *testing.T) {
	g, areas := fourAreas(t)
	_, d := newDomain(t, g, areas)
	if err := d.Join(0, 0, 1, mctree.SenderReceiver); !errors.Is(err, ErrGatewayMember) {
		t.Errorf("gateway join err = %v", err)
	}
	if err := d.Leave(0, 8, 1); !errors.Is(err, ErrGatewayMember) {
		t.Errorf("gateway leave err = %v", err)
	}
	if err := d.Join(0, 99, 1, mctree.SenderReceiver); err == nil {
		t.Error("unknown switch accepted")
	}
}

func TestSingleAreaMCStaysLocal(t *testing.T) {
	g, areas := fourAreas(t)
	k, d := newDomain(t, g, areas)
	if err := d.Join(0, 2, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(time.Millisecond, 5, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// The backbone heard nothing.
	if ids := d.Backbone().Switch(0).Connections(); len(ids) != 0 {
		t.Errorf("backbone has state %v for a single-area MC", ids)
	}
	// Other areas heard nothing either.
	if ids := d.Area(1).Switch(0).Connections(); len(ids) != 0 {
		t.Errorf("area 1 has state %v", ids)
	}
	tree, err := d.GlobalTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g, d.GlobalMembers(1)); err != nil {
		t.Errorf("global tree invalid: %v", err)
	}
}

func TestMultiAreaMCSpansHierarchy(t *testing.T) {
	g, areas := fourAreas(t)
	k, d := newDomain(t, g, areas)
	members := []topo.SwitchID{3, 12, 21, 30} // one per area
	for i, s := range members {
		if err := d.Join(sim.Time(i)*2*time.Millisecond, s, 1, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	tree, err := d.GlobalTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	gm := d.GlobalMembers(1)
	if len(gm) != 4 {
		t.Fatalf("global members = %v", gm)
	}
	if err := tree.Validate(g, gm); err != nil {
		t.Fatalf("global tree invalid: %v\ntree: %v", err, tree)
	}
	// Every gateway is on the tree (anchoring).
	for _, a := range areas {
		if !tree.On(a.Gateway) {
			t.Errorf("gateway %d off the global tree", a.Gateway)
		}
	}
	// Data-plane check: a member's packet reaches all other members over
	// the assembled tree.
	rep, err := deliver.Multicast(g, tree, gm, 3)
	if err != nil {
		t.Fatalf("delivery over hierarchical tree: %v", err)
	}
	if len(rep.Latency) != 3 {
		t.Errorf("reached %d members", len(rep.Latency))
	}
}

func TestShrinkingToOneAreaRemovesAnchors(t *testing.T) {
	g, areas := fourAreas(t)
	k, d := newDomain(t, g, areas)
	if err := d.Join(0, 3, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(2*time.Millisecond, 12, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// Two areas active: backbone MC alive.
	if ids := d.Backbone().Switch(0).Connections(); len(ids) != 1 {
		t.Fatalf("backbone connections = %v", ids)
	}
	// Area 1's member leaves: the MC collapses back into area 0.
	if err := d.Leave(k.Now()+2*time.Millisecond, 12, 1); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	if ids := d.Backbone().Switch(0).Connections(); len(ids) != 0 {
		t.Errorf("backbone still tracks %v", ids)
	}
	tree, err := d.GlobalTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g, d.GlobalMembers(1)); err != nil {
		t.Errorf("collapsed tree invalid: %v", err)
	}
	for _, e := range tree.Edges() {
		if e.A >= 8 || e.B >= 8 {
			t.Errorf("collapsed tree leaks outside area 0: %v", e)
		}
	}
}

// TestHierarchicalFloodingCheaperThanFlat measures the headline benefit:
// area-scoped floods transmit far fewer copies than flat network-wide
// floods for the same intra-area churn.
func TestHierarchicalFloodingCheaperThanFlat(t *testing.T) {
	g, areas := fourAreas(t)
	events := []struct {
		at     sim.Time
		s      topo.SwitchID
		isJoin bool
	}{
		{0, 3, true},
		{4 * time.Millisecond, 5, true},
		{8 * time.Millisecond, 12, true},
		{12 * time.Millisecond, 14, true},
		{16 * time.Millisecond, 5, false},
		{20 * time.Millisecond, 21, true},
	}

	// Hierarchical.
	k1, d1 := newDomain(t, g, areas)
	for _, e := range events {
		var err error
		if e.isJoin {
			err = d1.Join(e.at, e.s, 1, mctree.SenderReceiver)
		} else {
			err = d1.Leave(e.at, e.s, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	k1.Run()
	if err := d1.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	hierStats := d1.Stats()

	// Flat D-GMC over the same global graph and events.
	k2 := sim.NewKernel()
	net, err := flood.New(k2, g, testPerHop, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewDomain(k2, core.Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.isJoin {
			flat.Join(e.at, e.s, 1, mctree.SenderReceiver)
		} else {
			flat.Leave(e.at, e.s, 1)
		}
	}
	k2.Run()
	if err := flat.CheckConverged(); err != nil {
		t.Fatal(err)
	}

	if hierStats.Copies >= net.Copies() {
		t.Errorf("hierarchy did not reduce flooding: %d copies vs flat %d",
			hierStats.Copies, net.Copies())
	}
	t.Logf("flood copies: hierarchical=%d flat=%d (%.1f%% saved); computations %d vs %d",
		hierStats.Copies, net.Copies(),
		100*(1-float64(hierStats.Copies)/float64(net.Copies())),
		hierStats.Computations, flat.Metrics().Computations)
}

func TestGlobalTopologyNilForUnknownConn(t *testing.T) {
	g, areas := fourAreas(t)
	_, d := newDomain(t, g, areas)
	tree, err := d.GlobalTopology(42)
	if err != nil || tree != nil {
		t.Errorf("unknown conn: tree=%v err=%v", tree, err)
	}
}

func TestMultipleConnectionsAcrossHierarchy(t *testing.T) {
	g, areas := fourAreas(t)
	k, d := newDomain(t, g, areas)
	// Conn 1 spans areas 0+1; conn 2 is local to area 2; conn 3 spans 2+3.
	steps := []struct {
		at   sim.Time
		s    topo.SwitchID
		conn lsa.ConnID
	}{
		{0, 2, 1}, {2 * time.Millisecond, 10, 1},
		{4 * time.Millisecond, 18, 2}, {6 * time.Millisecond, 20, 2},
		{8 * time.Millisecond, 19, 3}, {10 * time.Millisecond, 27, 3},
	}
	for _, st := range steps {
		if err := d.Join(st.at, st.s, st.conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatal(err)
	}
	// The backbone carries conns 1 and 3 but not the area-local conn 2.
	bb := d.Backbone().Switch(0).Connections()
	has := map[lsa.ConnID]bool{}
	for _, id := range bb {
		has[id] = true
	}
	if !has[1] || !has[3] || has[2] {
		t.Errorf("backbone connections = %v, want {1,3}", bb)
	}
	for conn := lsa.ConnID(1); conn <= 3; conn++ {
		tree, err := d.GlobalTopology(conn)
		if err != nil {
			t.Fatalf("conn %d: %v", conn, err)
		}
		if err := tree.Validate(g, d.GlobalMembers(conn)); err != nil {
			t.Errorf("conn %d tree invalid: %v", conn, err)
		}
	}
}

func TestHierarchyDeterministicReplay(t *testing.T) {
	runOnce := func() (string, Stats) {
		g, areas := fourAreas(t)
		k := sim.NewKernel()
		d, err := NewDomain(k, Config{Global: g, Areas: areas, PerHop: testPerHop, Tc: testTc})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range []topo.SwitchID{3, 12, 21, 30} {
			if err := d.Join(sim.Time(i)*time.Millisecond, s, 1, mctree.SenderReceiver); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		tree, err := d.GlobalTopology(1)
		if err != nil {
			t.Fatal(err)
		}
		return tree.String(), d.Stats()
	}
	t1, s1 := runOnce()
	t2, s2 := runOnce()
	if t1 != t2 || s1 != s2 {
		t.Errorf("replay diverged: %s %+v vs %s %+v", t1, s1, t2, s2)
	}
}

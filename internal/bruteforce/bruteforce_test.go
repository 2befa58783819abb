package bruteforce

import (
	"testing"
	"time"

	"dgmc/internal/flood"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func newDomain(t *testing.T, g *topo.Graph) (*sim.Kernel, *Domain) {
	t.Helper()
	k := sim.NewKernel()
	net, err := flood.New(k, g, 2*time.Microsecond, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{Net: net, ComputeTime: 100 * time.Microsecond, Algorithm: route.SPH{}})
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	g, err := topo.Line(2, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
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

func TestEveryEventCostsNComputations(t *testing.T) {
	// The defining property §2 criticizes: one event, n computations.
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1, mctree.SenderReceiver)
	d.Join(time.Millisecond, 5, 1, mctree.SenderReceiver)
	k.Run()
	m := d.Metrics()
	if m.Events != 2 {
		t.Fatalf("events = %d", m.Events)
	}
	if m.Computations != 12 {
		t.Errorf("computations = %d, want 2 events × 6 switches", m.Computations)
	}
}

func TestAllSwitchesConvergeToSameTree(t *testing.T) {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1, mctree.SenderReceiver)
	d.Join(time.Millisecond, 8, 1, mctree.SenderReceiver)
	d.Join(2*time.Millisecond, 2, 1, mctree.SenderReceiver)
	k.Run()
	ref := d.Topology(0, 1)
	if ref == nil {
		t.Fatal("no topology at switch 0")
	}
	for s := 1; s < 9; s++ {
		got := d.Topology(topo.SwitchID(s), 1)
		if !ref.Equal(got) {
			t.Errorf("switch %d tree %v differs from %v", s, got, ref)
		}
	}
	if err := ref.Validate(g, d.Members(0, 1)); err != nil {
		t.Errorf("converged tree invalid: %v", err)
	}
}

func TestEmptyGroupCleansUp(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1, mctree.SenderReceiver)
	d.Leave(time.Millisecond, 0, 1)
	k.Run()
	for s := 0; s < 3; s++ {
		if d.Topology(topo.SwitchID(s), 1) != nil {
			t.Errorf("switch %d retains topology for empty group", s)
		}
		if len(d.Members(topo.SwitchID(s), 1)) != 0 {
			t.Errorf("switch %d retains members", s)
		}
	}
}

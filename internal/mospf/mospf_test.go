package mospf

import (
	"testing"
	"time"

	"dgmc/internal/flood"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

const (
	testTc     = 100 * time.Microsecond
	testPerHop = 2 * time.Microsecond
)

func newDomain(t *testing.T, g *topo.Graph) (*sim.Kernel, *Domain) {
	t.Helper()
	k := sim.NewKernel()
	net, err := flood.New(k, g, testPerHop, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{Net: net, ComputeTime: testTc})
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewDomain(k, Config{}); err == nil {
		t.Error("missing Net accepted")
	}
	g, err := topo.Line(2, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	net, err := flood.New(k, g, 0, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(k, Config{Net: net, ComputeTime: -1}); err == nil {
		t.Error("negative Tc accepted")
	}
}

func TestMembershipLSAsReachAllSwitches(t *testing.T) {
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 3, 1)
	d.Join(time.Millisecond, 0, 1)
	k.Run()
	for s := 0; s < 4; s++ {
		m := d.Members(topo.SwitchID(s), 1)
		if len(m) != 2 {
			t.Errorf("switch %d member view = %v", s, m)
		}
	}
	if d.Metrics().Events != 2 {
		t.Errorf("events = %d", d.Metrics().Events)
	}
}

func TestDatagramTriggersComputationAtEveryOnTreeSwitch(t *testing.T) {
	// Line 0-1-2-3, members at 0 and 3, source at 0: the delivery tree is
	// the whole line, so all 4 switches must compute.
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1)
	d.Join(0, 3, 1)
	d.SendDatagram(time.Millisecond, 0, 1)
	k.Run()
	m := d.Metrics()
	if m.Computations != 4 {
		t.Errorf("computations = %d, want 4 (every on-tree switch)", m.Computations)
	}
	if m.Delivered != 2 {
		t.Errorf("delivered = %d, want 2", m.Delivered)
	}
	if m.Forwards != 3 {
		t.Errorf("forwards = %d, want 3 hops", m.Forwards)
	}
}

func TestCacheAvoidsRecomputationUntilEvent(t *testing.T) {
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1)
	d.Join(0, 3, 1)
	d.SendDatagram(time.Millisecond, 0, 1)
	d.SendDatagram(2*time.Millisecond, 0, 1) // cache hit everywhere
	k.Run()
	if m := d.Metrics(); m.Computations != 4 {
		t.Errorf("computations = %d, want 4 (second datagram cached)", m.Computations)
	}
	if d.CacheSize(1) != 1 {
		t.Errorf("cache size at relay = %d", d.CacheSize(1))
	}

	// A membership event invalidates caches: the next datagram recomputes.
	d.Join(3*time.Millisecond, 2, 1)
	d.SendDatagram(4*time.Millisecond, 0, 1)
	k.Run()
	if m := d.Metrics(); m.Computations != 8 {
		t.Errorf("computations = %d, want 8 after cache flush", m.Computations)
	}
}

func TestPerSourceTreesMultiplyComputations(t *testing.T) {
	// Two sources into the same group: MOSPF builds one SPT per source at
	// every on-tree switch — the symmetric-MC weakness §2 describes.
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1)
	d.Join(0, 3, 1)
	d.SendDatagram(time.Millisecond, 0, 1)
	d.SendDatagram(2*time.Millisecond, 3, 1)
	k.Run()
	if m := d.Metrics(); m.Computations != 8 {
		t.Errorf("computations = %d, want 8 (4 per source)", m.Computations)
	}
}

func TestLeaveShrinksTree(t *testing.T) {
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k, d := newDomain(t, g)
	d.Join(0, 0, 1)
	d.Join(0, 3, 1)
	d.Leave(time.Millisecond, 3, 1)
	d.SendDatagram(2*time.Millisecond, 0, 1)
	k.Run()
	m := d.Metrics()
	if m.Delivered != 1 {
		t.Errorf("delivered = %d, want only member 0", m.Delivered)
	}
	if m.Forwards != 0 {
		t.Errorf("forwards = %d, want 0 (tree is just the source)", m.Forwards)
	}
}

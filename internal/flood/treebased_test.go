package flood

import (
	"testing"
	"time"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// TestTreeBasedMatchesDirectArrivals: switch-aided flooding must deliver at
// the same instants as classic flooding — only the transmission count
// differs.
func TestTreeBasedMatchesDirectArrivals(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(25, 8))
	if err != nil {
		t.Fatal(err)
	}
	var arrivals [2][][]sim.Time
	var copies [2]uint64
	for mi, mode := range []Mode{Direct, TreeBased} {
		k := sim.NewKernel()
		n, err := New(k, g, hop, mode)
		if err != nil {
			t.Fatal(err)
		}
		arr := collect(k, n, g.NumSwitches())
		n.Flood(3, "x")
		k.Run()
		arrivals[mi] = arr
		copies[mi] = n.Copies()
	}
	for s := 0; s < g.NumSwitches(); s++ {
		if len(arrivals[0][s]) != len(arrivals[1][s]) {
			t.Fatalf("switch %d: delivery count differs", s)
		}
		for i := range arrivals[0][s] {
			if arrivals[0][s][i] != arrivals[1][s][i] {
				t.Errorf("switch %d arrival %v vs %v", s, arrivals[0][s][i], arrivals[1][s][i])
			}
		}
	}
	if copies[1] != uint64(g.NumSwitches()-1) {
		t.Errorf("tree-based copies = %d, want n-1 = %d", copies[1], g.NumSwitches()-1)
	}
	if copies[0] <= copies[1] {
		t.Errorf("classic flooding copies %d not above tree-based %d", copies[0], copies[1])
	}
}

// TestDirectCopyAccountingMatchesHopByHop: the Direct mode's analytic
// transmission charge must equal what hop-by-hop forwarding actually sends.
func TestDirectCopyAccountingMatchesHopByHop(t *testing.T) {
	for _, gen := range []func() (*topo.Graph, error){
		func() (*topo.Graph, error) { return topo.Ring(6, 10*time.Microsecond) },
		func() (*topo.Graph, error) { return topo.Grid(3, 3, 5*time.Microsecond) },
		func() (*topo.Graph, error) { return topo.Waxman(topo.DefaultGenConfig(20, 4)) },
	} {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var copies [2]uint64
		for mi, mode := range []Mode{Direct, HopByHop} {
			k := sim.NewKernel()
			n, err := New(k, g, hop, mode)
			if err != nil {
				t.Fatal(err)
			}
			n.Flood(0, "x")
			k.Run()
			copies[mi] = n.Copies()
		}
		if copies[0] != copies[1] {
			t.Errorf("copy accounting: direct %d vs hop-by-hop %d", copies[0], copies[1])
		}
	}
}

package flood

import (
	"testing"
	"time"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

const hop = 2 * time.Microsecond

func lineNet(t *testing.T, mode Mode) (*sim.Kernel, *Network) {
	t.Helper()
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	n, err := New(k, g, hop, mode)
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

// collect registers sink receivers recording per-switch arrival times.
func collect(k *sim.Kernel, n *Network, numSwitches int) []([]sim.Time) {
	arrivals := make([][]sim.Time, numSwitches)
	for i := 0; i < numSwitches; i++ {
		inbox := n.Mailbox(topo.SwitchID(i))
		inbox.OnDeliver(func() {
			for _, raw := range inbox.Drain() {
				if _, ok := raw.(Delivery); ok {
					arrivals[i] = append(arrivals[i], k.Now())
				}
			}
		})
	}
	return arrivals
}

func TestDirectArrivalTimes(t *testing.T) {
	k, n := lineNet(t, Direct)
	arrivals := collect(k, n, 4)
	n.Flood(0, "hello")
	k.Run()
	// Per hop: 10µs link + 2µs perHop = 12µs.
	if len(arrivals[0]) != 0 {
		t.Error("origin received its own flood")
	}
	for i, want := range []sim.Time{0, 12 * time.Microsecond, 24 * time.Microsecond, 36 * time.Microsecond} {
		if i == 0 {
			continue
		}
		if len(arrivals[i]) != 1 || arrivals[i][0] != want {
			t.Errorf("switch %d arrivals = %v, want [%v]", i, arrivals[i], want)
		}
	}
	if n.Floodings() != 1 {
		t.Errorf("floodings = %d", n.Floodings())
	}
}

func TestHopByHopMatchesDirect(t *testing.T) {
	gens := []func() (*topo.Graph, error){
		func() (*topo.Graph, error) { return topo.Ring(7, 10*time.Microsecond) },
		func() (*topo.Graph, error) { return topo.Grid(3, 4, 5*time.Microsecond) },
		func() (*topo.Graph, error) { return topo.Waxman(topo.DefaultGenConfig(25, 3)) },
	}
	for gi, gen := range gens {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var results [2][][]sim.Time
		for mi, mode := range []Mode{Direct, HopByHop} {
			k := sim.NewKernel()
			n, err := New(k, g, hop, mode)
			if err != nil {
				t.Fatal(err)
			}
			arrivals := collect(k, n, g.NumSwitches())
			n.Flood(2, "payload")
			k.Run()
			results[mi] = arrivals
		}
		for s := 0; s < g.NumSwitches(); s++ {
			if len(results[0][s]) != len(results[1][s]) {
				t.Fatalf("graph %d switch %d: direct %v vs hopbyhop %v", gi, s, results[0][s], results[1][s])
			}
			for i := range results[0][s] {
				if results[0][s][i] != results[1][s][i] {
					t.Errorf("graph %d switch %d: arrival %v vs %v", gi, s, results[0][s][i], results[1][s][i])
				}
			}
		}
	}
}

func TestHopByHopSuppressesDuplicates(t *testing.T) {
	g, err := topo.Ring(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	n, err := New(k, g, hop, HopByHop)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := collect(k, n, 5)
	n.Flood(0, "x")
	k.Run()
	for s := 1; s < 5; s++ {
		if len(arrivals[s]) != 1 {
			t.Errorf("switch %d received %d copies", s, len(arrivals[s]))
		}
	}
}

func TestFloodRespectsDownLinks(t *testing.T) {
	for _, mode := range []Mode{Direct, HopByHop} {
		g, err := topo.Line(4, 10*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetLinkDown(1, 2, true); err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		n, err := New(k, g, hop, mode)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := collect(k, n, 4)
		n.Flood(0, "x")
		k.Run()
		if len(arrivals[1]) != 1 {
			t.Errorf("%v: reachable switch missed flood", mode)
		}
		if len(arrivals[2]) != 0 || len(arrivals[3]) != 0 {
			t.Errorf("%v: flood crossed failed link", mode)
		}
	}
}

func TestMultipleFloodsInterleave(t *testing.T) {
	k, n := lineNet(t, Direct)
	arrivals := collect(k, n, 4)
	n.Flood(0, "a")
	n.Flood(3, "b")
	k.Run()
	// Switch 1 hears from 0 at 12µs and from 3 at 24µs.
	if len(arrivals[1]) != 2 {
		t.Fatalf("switch 1 arrivals = %v", arrivals[1])
	}
	if arrivals[1][0] != 12*time.Microsecond || arrivals[1][1] != 24*time.Microsecond {
		t.Errorf("switch 1 arrivals = %v", arrivals[1])
	}
	if n.Floodings() != 2 {
		t.Errorf("floodings = %d", n.Floodings())
	}
	n.ResetCounters()
	if n.Floodings() != 0 || n.Copies() != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestFloodTime(t *testing.T) {
	_, n := lineNet(t, Direct)
	tf, err := n.FloodTime()
	if err != nil {
		t.Fatal(err)
	}
	if tf != 3*(10*time.Microsecond+hop) {
		t.Errorf("Tf = %v, want 36µs", tf)
	}
	if err := n.Graph().SetLinkDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.FloodTime(); err == nil {
		t.Error("FloodTime on partitioned network succeeded")
	}
}

func TestNewValidation(t *testing.T) {
	g, err := topo.Line(2, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	if _, err := New(k, g, -time.Microsecond, Direct); err == nil {
		t.Error("negative per-hop accepted")
	}
	if _, err := New(k, g, time.Microsecond, Mode(9)); err == nil {
		t.Error("invalid mode accepted")
	}
	if Mode(9).String() == "" || Direct.String() != "direct" || HopByHop.String() != "hop-by-hop" {
		t.Error("mode strings wrong")
	}
}

package flood

import (
	"testing"
	"time"

	"dgmc/internal/faults"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// TestReliableMatchesHopByHop is the byte-identical guarantee: with no
// faults injected, Reliable must reproduce HopByHop's deliveries exactly —
// same arrival times, same data-copy count — with zero retransmissions.
func TestReliableMatchesHopByHop(t *testing.T) {
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
		var copies [2]uint64
		for mi, mode := range []Mode{HopByHop, Reliable} {
			k := sim.NewKernel()
			n, err := New(k, g, hop, mode)
			if err != nil {
				t.Fatal(err)
			}
			arrivals := collect(k, n, g.NumSwitches())
			n.Flood(2, "payload")
			n.Flood(5, "second")
			k.Run()
			results[mi] = arrivals
			copies[mi] = n.Copies()
			if mode == Reliable {
				rs := n.Reliability()
				if rs.Retransmits != 0 || rs.Drops != 0 || rs.GiveUps != 0 {
					t.Errorf("graph %d: fault-free reliable run recovered: %s", gi, rs)
				}
				if rs.DataSends == 0 || rs.AcksReceived != rs.DataSends {
					t.Errorf("graph %d: ack accounting off: %s", gi, rs)
				}
			}
		}
		if copies[0] != copies[1] {
			t.Errorf("graph %d: data copies %d (hop-by-hop) vs %d (reliable)", gi, copies[0], copies[1])
		}
		for s := 0; s < g.NumSwitches(); s++ {
			if len(results[0][s]) != len(results[1][s]) {
				t.Fatalf("graph %d switch %d: hopbyhop %v vs reliable %v", gi, s, results[0][s], results[1][s])
			}
			for i := range results[0][s] {
				if results[0][s][i] != results[1][s][i] {
					t.Errorf("graph %d switch %d: arrival %v vs %v", gi, s, results[0][s][i], results[1][s][i])
				}
			}
		}
	}
}

// TestReliableDeliversUnderLoss floods over a heavily lossy fabric and
// requires every switch to still receive exactly one copy per flood.
func TestReliableDeliversUnderLoss(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(15, 11))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	inj, err := faults.New(k, faults.Plan{
		Seed:    99,
		Default: faults.LinkFaults{Drop: 0.3, Dup: 0.1, Jitter: 3 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(k, g, hop, Reliable, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := collect(k, n, 15)
	for origin := 0; origin < 3; origin++ {
		n.Flood(topo.SwitchID(origin), origin)
	}
	k.Run()
	for s := 0; s < 15; s++ {
		want := 3
		if s < 3 {
			want = 2 // origins do not hear their own flood
		}
		if len(arrivals[s]) != want {
			t.Errorf("switch %d received %d deliveries, want %d", s, len(arrivals[s]), want)
		}
	}
	rs := n.Reliability()
	if rs.Retransmits == 0 || rs.Drops == 0 || rs.DupSuppressed == 0 {
		t.Errorf("loss run did not exercise recovery: %s", rs)
	}
	if rs.GiveUps != 0 {
		t.Errorf("%d give-ups despite the retry budget; arrivals may be incomplete", rs.GiveUps)
	}
}

func TestModeString(t *testing.T) {
	cases := []struct {
		mode Mode
		want string
	}{
		{Direct, "direct"},
		{HopByHop, "hop-by-hop"},
		{TreeBased, "tree-based"},
		{Reliable, "reliable"},
		{Mode(42), "Mode(42)"},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.want {
			t.Errorf("Mode(%d).String() = %q, want %q", uint8(c.mode), got, c.want)
		}
	}
}

func TestUnicastNeighborsOnly(t *testing.T) {
	for _, mode := range []Mode{Direct, Reliable} {
		g, err := topo.Line(4, 10*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		n, err := New(k, g, hop, mode)
		if err != nil {
			t.Fatal(err)
		}
		var got []Unicast
		inbox := n.Mailbox(1)
		inbox.OnDeliver(func() {
			for _, raw := range inbox.Drain() {
				if u, ok := raw.(Unicast); ok {
					got = append(got, u)
				}
			}
		})
		n.Unicast(0, 1, "ping")  // neighbors: delivered
		n.Unicast(0, 3, "drop")  // not adjacent: silently discarded
		n.Unicast(0, 2, "drop2") // not adjacent either
		k.Run()
		if len(got) != 1 || got[0].Payload != "ping" || got[0].From != 0 || got[0].To != 1 {
			t.Errorf("%v: unicast deliveries = %+v, want one ping 0→1", mode, got)
		}
	}
}

func TestFaultOptionsValidation(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	inj, err := faults.New(k, faults.Plan{Default: faults.LinkFaults{Drop: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Direct, HopByHop, TreeBased} {
		if _, err := New(k, g, hop, mode, WithFaults(inj)); err == nil {
			t.Errorf("fault injection accepted in %v mode", mode)
		}
	}
	if _, err := New(k, g, hop, Reliable, WithFaults(inj)); err != nil {
		t.Errorf("fault injection rejected in Reliable mode: %v", err)
	}
	if _, err := New(k, g, hop, Reliable, WithRetryBudget(-1)); err == nil {
		t.Error("negative retry budget accepted")
	}
}

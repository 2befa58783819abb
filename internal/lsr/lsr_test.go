package lsr

import (
	"testing"
	"time"

	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func newDomain(t *testing.T, g *topo.Graph) []*Instance {
	t.Helper()
	instances := make([]*Instance, g.NumSwitches())
	for s := range instances {
		inst, err := NewInstance(topo.SwitchID(s), g)
		if err != nil {
			t.Fatal(err)
		}
		instances[s] = inst
	}
	return instances
}

func TestNewInstanceValidation(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(-1, g); err == nil {
		t.Error("negative self accepted")
	}
	if _, err := NewInstance(3, g); err == nil {
		t.Error("out-of-range self accepted")
	}
	inst, err := NewInstance(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Self() != 1 {
		t.Errorf("self = %d", inst.Self())
	}
}

func TestInitialRoutingTables(t *testing.T) {
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	instances := newDomain(t, g)

	nh, ok := instances[0].NextHop(3)
	if !ok || nh != 1 {
		t.Errorf("0->3 next hop = %d,%v", nh, ok)
	}
	nh, ok = instances[2].NextHop(0)
	if !ok || nh != 1 {
		t.Errorf("2->0 next hop = %d,%v", nh, ok)
	}
	nh, ok = instances[1].NextHop(1)
	if !ok || nh != 1 {
		t.Errorf("self next hop = %d,%v", nh, ok)
	}
	if _, ok := instances[0].NextHop(9); ok {
		t.Error("next hop for bogus destination")
	}
	path, err := Route(instances, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Errorf("path = %v", path)
	}
}

func TestHandleLSAUpdatesImageAndTable(t *testing.T) {
	// Ring: failing one link forces routing the long way.
	g, err := topo.Ring(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	instances := newDomain(t, g)

	nh, _ := instances[0].NextHop(3)
	if nh != 3 {
		t.Fatalf("initial 0->3 next hop = %d, want direct 3", nh)
	}
	nm := &lsa.NonMC{Src: 0, Change: lsa.LinkChange{A: 0, B: 3, Down: true}}
	changed, err := instances[0].HandleLSA(nm)
	if err != nil || !changed {
		t.Fatalf("HandleLSA: changed=%v err=%v", changed, err)
	}
	if instances[0].Version() != 1 {
		t.Errorf("version = %d", instances[0].Version())
	}
	nh, ok := instances[0].NextHop(3)
	if !ok || nh != 1 {
		t.Errorf("0->3 after failure next hop = %d,%v, want 1", nh, ok)
	}
	// Duplicate LSA is idempotent.
	changed, err = instances[0].HandleLSA(nm)
	if err != nil || changed {
		t.Errorf("duplicate LSA: changed=%v err=%v", changed, err)
	}
	// Link recovery restores the direct route.
	up := &lsa.NonMC{Src: 3, Change: lsa.LinkChange{A: 0, B: 3, Down: false}}
	if changed, err := instances[0].HandleLSA(up); err != nil || !changed {
		t.Fatalf("recovery LSA: changed=%v err=%v", changed, err)
	}
	if nh, _ := instances[0].NextHop(3); nh != 3 {
		t.Errorf("0->3 after recovery = %d", nh)
	}
}

func TestHandleLSAErrors(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(0, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.HandleLSA(nil); err == nil {
		t.Error("nil LSA accepted")
	}
	bogus := &lsa.NonMC{Src: 0, Change: lsa.LinkChange{A: 0, B: 2, Down: true}}
	if _, err := inst.HandleLSA(bogus); err == nil {
		t.Error("LSA for unknown link accepted")
	}
}

func TestApplyLocalEvent(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(0, g)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := inst.ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: true})
	if err != nil {
		t.Fatal(err)
	}
	if nm.Src != 0 || !nm.Change.Down {
		t.Errorf("LSA = %+v", nm)
	}
	if _, ok := inst.NextHop(2); ok {
		t.Error("route survived local link failure")
	}
	// Instance image changed, not the shared base graph.
	if l, _ := g.Link(0, 1); l.Down {
		t.Error("ApplyLocalEvent mutated the base graph")
	}
}

func TestRouteErrors(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	instances := newDomain(t, g)
	if _, err := Route(instances, 0, 5); err == nil {
		t.Error("out-of-range destination accepted")
	}
	// Blackhole: switch 0 thinks 0-1 is down.
	if _, err := instances[0].ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Route(instances, 0, 2); err == nil {
		t.Error("blackhole route succeeded")
	}
	// Loop: 1 still routes 0->... but 0 routes via nothing — craft a loop by
	// making 1 think the 1-2 link is down while 2 disagrees.
	instances = newDomain(t, g)
	if _, err := instances[1].ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := instances[0].ApplyLocalEvent(lsa.LinkChange{A: 1, B: 2, Down: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Route(instances, 0, 2); err == nil {
		t.Error("inconsistent-image route did not error")
	}
}

// TestDomainConvergenceViaFlooding is the substrate integration test: a
// link event is detected at one switch, flooded as a non-MC LSA, and every
// switch's image and routing table converge.
func TestDomainConvergenceViaFlooding(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(30, 9))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, time.Microsecond, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	instances := newDomain(t, g)
	for s := 0; s < g.NumSwitches(); s++ {
		inbox := net.Mailbox(topo.SwitchID(s))
		inbox.OnDeliver(func() {
			for _, raw := range inbox.Drain() {
				d, ok := raw.(flood.Delivery)
				if !ok {
					continue
				}
				nm, ok := d.Payload.(*lsa.NonMC)
				if !ok {
					continue
				}
				if _, err := instances[s].HandleLSA(nm); err != nil {
					t.Errorf("switch %d: %v", s, err)
					return
				}
			}
		})
	}

	// Pick a link whose failure keeps the network connected.
	var fail topo.Link
	found := false
	for _, l := range g.Links() {
		trial := g.Clone()
		if err := trial.SetLinkDown(l.A, l.B, true); err != nil {
			t.Fatal(err)
		}
		if trial.Connected() {
			fail = l
			found = true
			break
		}
	}
	if !found {
		t.Skip("no redundant link in generated graph")
	}

	// Switch fail.A detects the failure.
	k.Schedule(0, func() {
		nm, err := instances[fail.A].ApplyLocalEvent(lsa.LinkChange{A: fail.A, B: fail.B, Down: true})
		if err != nil {
			t.Errorf("originate: %v", err)
			return
		}
		net.Flood(fail.A, nm)
	})
	k.Run()

	for s := 0; s < g.NumSwitches(); s++ {
		l, ok := instances[s].Image().Link(fail.A, fail.B)
		if !ok || !l.Down {
			t.Fatalf("switch %d image did not converge", s)
		}
	}
	// Hop-by-hop forwarding works between every pair after convergence.
	for from := 0; from < g.NumSwitches(); from += 7 {
		for dst := 0; dst < g.NumSwitches(); dst += 5 {
			if _, err := Route(instances, topo.SwitchID(from), topo.SwitchID(dst)); err != nil {
				t.Errorf("route %d->%d: %v", from, dst, err)
			}
		}
	}
}

// TestSequencedLSAStalenessProtection verifies the OSPF-style rule: a
// reordered (older) advertisement from the same originator cannot regress
// the image, and duplicates of the newest are ignored.
func TestSequencedLSAStalenessProtection(t *testing.T) {
	g, err := topo.Ring(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewInstance(0, g)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewInstance(2, g)
	if err != nil {
		t.Fatal(err)
	}
	down, err := origin.ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: true})
	if err != nil {
		t.Fatal(err)
	}
	up, err := origin.ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: false})
	if err != nil {
		t.Fatal(err)
	}
	if down.Seq != 1 || up.Seq != 2 {
		t.Fatalf("seqs = %d, %d", down.Seq, up.Seq)
	}

	// Reordered delivery: the newer "up" arrives first.
	if changed, err := receiver.HandleLSA(up); err != nil || changed {
		t.Fatalf("up first: changed=%v err=%v (image already up)", changed, err)
	}
	// The stale "down" must be discarded, not applied.
	if changed, err := receiver.HandleLSA(down); err != nil || changed {
		t.Errorf("stale down applied: changed=%v err=%v", changed, err)
	}
	if l, _ := receiver.Image().Link(0, 1); l.Down {
		t.Error("stale LSA regressed the image")
	}
	// A duplicate of the newest is ignored too.
	if changed, err := receiver.HandleLSA(up); err != nil || changed {
		t.Errorf("duplicate newest: changed=%v err=%v", changed, err)
	}
	// A genuinely newer advertisement still applies.
	down2, err := origin.ApplyLocalEvent(lsa.LinkChange{A: 0, B: 1, Down: true})
	if err != nil {
		t.Fatal(err)
	}
	if changed, err := receiver.HandleLSA(down2); err != nil || !changed {
		t.Errorf("newer LSA rejected: changed=%v err=%v", changed, err)
	}
}

// TestSequenceNumbersAreIndependentPerOriginator checks that staleness is
// tracked per source: seq 1 from a second originator is not stale just
// because the first originator reached seq 2.
func TestSequenceNumbersAreIndependentPerOriginator(t *testing.T) {
	g, err := topo.Ring(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewInstance(3, g)
	if err != nil {
		t.Fatal(err)
	}
	a := &lsa.NonMC{Src: 0, Seq: 2, Change: lsa.LinkChange{A: 0, B: 1, Down: true}}
	if changed, err := receiver.HandleLSA(a); err != nil || !changed {
		t.Fatalf("seed LSA: %v %v", changed, err)
	}
	b := &lsa.NonMC{Src: 1, Seq: 1, Change: lsa.LinkChange{A: 1, B: 2, Down: true}}
	if changed, err := receiver.HandleLSA(b); err != nil || !changed {
		t.Errorf("other-origin seq 1 treated as stale: changed=%v err=%v", changed, err)
	}
}

package core

import (
	"testing"
	"time"

	"dgmc/internal/faults"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// probeRound returns Tf+Tc for g so fault windows and resync timeouts can
// be sized before the real (faulty) network is built.
func probeRound(t *testing.T, g *topo.Graph, perHop, tc time.Duration) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	net, err := flood.New(k, g, perHop, flood.Direct)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := net.FloodTime()
	if err != nil {
		t.Fatal(err)
	}
	return tf + tc
}

// injectShifted injects a churn slice for conn, re-based so its first event
// lands at `base` (preserving the slice's inter-event gaps).
func injectShifted(d *Domain, conn lsa.ConnID, slice []workload.Event, base sim.Time) {
	if len(slice) == 0 {
		return
	}
	shift := base - slice[0].At
	for _, e := range slice {
		if e.Join {
			d.Join(e.At+shift, e.Switch, conn, e.Role)
		} else {
			d.Leave(e.At+shift, e.Switch, conn)
		}
	}
}

// TestSoakLossyChurnConverges is the robustness soak: ~1000 churn events on
// two connections over a fabric that drops 20% of transmissions, duplicates
// 5%, jitters deliveries, and silently flaps one link for twenty rounds —
// with a deliberately tight retry budget so the transport alone cannot mask
// every loss and the core resync machinery must close the gaps. The domain
// must fully re-converge (R = E = C everywhere, identical topologies) after
// every phase.
func TestSoakLossyChurnConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n      = 20
		perHop = 10 * time.Microsecond
		tc     = 500 * time.Microsecond
	)
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 77))
	if err != nil {
		t.Fatal(err)
	}
	round := probeRound(t, g, perHop, tc)
	flapLink := g.Links()[0]
	plan := faults.Plan{
		Seed:    123,
		Default: faults.LinkFaults{Drop: 0.2, Dup: 0.05, Jitter: 5 * time.Microsecond},
		Flaps: []faults.Flap{{
			A: flapLink.A, B: flapLink.B,
			DownAt: 40 * round, UpAt: 60 * round,
		}},
	}
	t.Log(plan.Describe())

	k := sim.NewKernel()
	inj, err := faults.New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	net, err := flood.New(k, g, perHop, flood.Reliable,
		flood.WithFaults(inj), flood.WithRetryBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{
		Net:         net,
		ComputeTime: tc,
		Algorithm:   route.SPH{},
		Kinds: map[lsa.ConnID]mctree.Kind{
			1: mctree.Symmetric,
			2: mctree.ReceiverOnly,
		},
		ResyncTimeout: 4 * round,
	})
	if err != nil {
		t.Fatal(err)
	}

	churn1, err := workload.Churn(workload.Config{
		N: n, Events: 510, Seed: 5, Start: round, MeanGap: 2 * round})
	if err != nil {
		t.Fatal(err)
	}
	churn2, err := workload.Churn(workload.Config{
		N: n, Events: 510, Seed: 6, Start: round, MeanGap: 2 * round, Role: mctree.Receiver})
	if err != nil {
		t.Fatal(err)
	}

	const phases = 3
	per := len(churn1) / phases
	for ph := 0; ph < phases; ph++ {
		base := k.Now() + round
		injectShifted(d, 1, churn1[ph*per:(ph+1)*per], base)
		injectShifted(d, 2, churn2[ph*per:(ph+1)*per], base)
		k.Run()
		if err := d.CheckConverged(); err != nil {
			t.Fatalf("phase %d did not converge: %v", ph, err)
		}
	}

	m := d.Metrics()
	rs := net.Reliability()
	t.Logf("soak: %d events, %d computations, %s", m.Events, m.Computations, rs)
	t.Logf("recovery: out-of-order=%d resync-requests=%d responses=%d give-ups=%d",
		m.OutOfOrderLSAs, m.ResyncRequests, m.ResyncResponses, m.ResyncGiveUps)
	if m.Events != uint64(phases*per*2) {
		t.Errorf("events = %d, want %d", m.Events, phases*per*2)
	}
	if rs.Drops == 0 || rs.Retransmits == 0 {
		t.Errorf("faults not exercised: %s", rs)
	}
	if rs.GiveUps == 0 {
		t.Error("retry budget never exhausted; resync path untested — tighten the budget or raise the drop rate")
	}
	if m.ResyncRequests == 0 {
		t.Error("no resync requests despite transport give-ups")
	}
	if m.ResyncGiveUps != 0 {
		t.Errorf("%d resync give-ups; gaps were abandoned", m.ResyncGiveUps)
	}
	// Recovery effort must stay bounded: resync is a per-gap exchange, not
	// a broadcast storm.
	if m.ResyncRequests > m.Events*4 {
		t.Errorf("resync requests (%d) out of proportion to events (%d)", m.ResyncRequests, m.Events)
	}
}

// TestSoakLossyWithoutResyncDiverges is the control for the soak above: the
// same kind of lossy fabric with retransmission and resync both disabled
// must NOT converge — otherwise the recovery machinery is vacuous and the
// soak proves nothing.
func TestSoakLossyWithoutResyncDiverges(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n      = 20
		perHop = 10 * time.Microsecond
		tc     = 500 * time.Microsecond
	)
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 77))
	if err != nil {
		t.Fatal(err)
	}
	round := probeRound(t, g, perHop, tc)
	k := sim.NewKernel()
	inj, err := faults.New(k, faults.Plan{
		Seed:    123,
		Default: faults.LinkFaults{Drop: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := flood.New(k, g, perHop, flood.Reliable,
		flood.WithFaults(inj), flood.WithRetryBudget(0)) // plain lossy flooding
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{
		Net:         net,
		ComputeTime: tc,
		Algorithm:   route.SPH{},
		// ResyncTimeout zero: no gap recovery.
	})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := workload.Churn(workload.Config{
		N: n, Events: 100, Seed: 9, Start: round, MeanGap: 2 * round})
	if err != nil {
		t.Fatal(err)
	}
	injectShifted(d, 1, churn, round)
	k.Run()
	if err := d.CheckConverged(); err == nil {
		t.Fatal("run with loss but no recovery converged; the soak's faults are too weak to prove anything")
	} else {
		t.Logf("diverged as expected: %v", err)
	}
}

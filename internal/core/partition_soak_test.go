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

// gridColumnSplit partitions a rows×cols grid (row-major IDs) into the
// columns below cut and the rest — a clean bipartition whose sides both
// stay internally connected.
func gridColumnSplit(rows, cols, cut int) [][]topo.SwitchID {
	var a, b []topo.SwitchID
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := topo.SwitchID(r*cols + c)
			if c < cut {
				a = append(a, id)
			} else {
				b = append(b, id)
			}
		}
	}
	return [][]topo.SwitchID{a, b}
}

// TestPartitionHealSimConverges is the deterministic split-brain scenario:
// a 3×4 grid splits down the middle with members on both sides, each side
// keeps churning independently (joins and a leave the other side cannot
// see), a mid-split probe proves the views really diverged, and after the
// heal the boundary reconciliation plus replay re-flooding must converge
// every switch to the union of both histories.
func TestPartitionHealSimConverges(t *testing.T) {
	const (
		rows   = 3
		cols   = 4
		perHop = 10 * time.Microsecond
		tc     = 500 * time.Microsecond
		conn   = lsa.ConnID(1)
	)
	g, err := topo.Grid(rows, cols, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	round := probeRound(t, g, perHop, tc)

	p := faults.Partition{
		Groups: gridColumnSplit(rows, cols, 2),
		At:     10 * round,
		HealAt: 30 * round,
	}
	plan := faults.Plan{Seed: 7, Partitions: []faults.Partition{p}}
	k := sim.NewKernel()
	inj, err := faults.New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Reliable transport with a tight retry budget: intra-side traffic is
	// lossless, cross-boundary frames exhaust their retries and vanish —
	// the transport's view of a split.
	net, err := flood.New(k, g, perHop, flood.Reliable,
		flood.WithFaults(inj), flood.WithRetryBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(k, Config{
		Net:           net,
		ComputeTime:   tc,
		Algorithm:     route.SPH{},
		ResyncTimeout: 4 * round,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SchedulePartitionHeal(p)

	// Pre-split: members on both future sides (0 in A, 11 in B).
	d.Join(round, 0, conn, mctree.SenderReceiver)
	d.Join(2*round, 11, conn, mctree.SenderReceiver)
	// Mid-split churn on both sides: A gains 5 and loses 0, B gains 6 and 10.
	d.Join(15*round, 5, conn, mctree.SenderReceiver)
	d.Join(15*round, 6, conn, mctree.SenderReceiver)
	d.Leave(18*round, 0, conn)
	d.Join(20*round, 10, conn, mctree.SenderReceiver)

	// Mid-split probe: the sides must hold genuinely divergent views, or
	// the heal below proves nothing.
	k.Schedule(25*round, func() {
		sa, ok := d.Switch(1).Connection(conn)
		if !ok {
			t.Error("side A holds no connection state mid-split")
			return
		}
		sb, ok := d.Switch(2).Connection(conn)
		if !ok {
			t.Error("side B holds no connection state mid-split")
			return
		}
		if _, leak := sa.Members[6]; leak {
			t.Error("side A learned a mid-split B join; the partition leaks")
		}
		if _, leak := sb.Members[5]; leak {
			t.Error("side B learned a mid-split A join; the partition leaks")
		}
		if _, stale := sb.Members[0]; !stale {
			t.Error("side B already saw A's mid-split leave; the partition leaks")
		}
	})

	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatalf("did not converge after heal: %v", err)
	}
	// Every switch must hold the union of both sides' histories.
	want := []topo.SwitchID{5, 6, 10, 11}
	for s := 0; s < g.NumSwitches(); s++ {
		snap, ok := d.Switch(topo.SwitchID(s)).Connection(conn)
		if !ok {
			t.Fatalf("switch %d holds no connection state after heal", s)
		}
		if len(snap.Members) != len(want) {
			t.Fatalf("switch %d members = %v, want %v", s, snap.Members, want)
		}
		for _, m := range want {
			if _, in := snap.Members[m]; !in {
				t.Fatalf("switch %d missing member %d: %v", s, m, snap.Members)
			}
		}
		if _, in := snap.Members[0]; in {
			t.Fatalf("switch %d still lists member 0 after its mid-split leave", s)
		}
	}
	m := d.Metrics()
	rs := net.Reliability()
	t.Logf("partition/heal: reconciles=%d replays=%d resync-requests=%d give-ups=%d transport=%s",
		m.Reconciles, m.Replays, m.ResyncRequests, m.ResyncGiveUps, rs)
	if m.Reconciles == 0 {
		t.Error("heal triggered no reconciliation")
	}
	if m.Replays == 0 {
		t.Error("reconciliation replayed nothing despite divergent histories")
	}
	if rs.GiveUps == 0 {
		t.Error("no transport give-ups; the partition never actually cut traffic")
	}
	if m.ResyncGiveUps != 0 {
		t.Errorf("%d resync give-ups; heal recovery was abandoned somewhere", m.ResyncGiveUps)
	}
}

// TestMobilitySimSoak runs the generated mobility workload — churn overlaid
// with random bipartitions and flapping links on top of background loss —
// through the simulator and requires full convergence once the network
// calms down. This is the sim-side twin of the live-runtime mobility soak.
func TestMobilitySimSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n      = 16
		perHop = 10 * time.Microsecond
		tc     = 500 * time.Microsecond
		conn   = lsa.ConnID(1)
	)
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	round := probeRound(t, g, perHop, tc)

	events, plan, err := workload.Mobility(workload.MobilityConfig{
		Config: workload.Config{
			N: n, Events: 160, Seed: 21, Start: round, MeanGap: 2 * round,
		},
		Graph:      g,
		Partitions: 2,
		FlapLinks:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Background loss on top of the splits and flaps.
	plan.Default = faults.LinkFaults{Drop: 0.1, Dup: 0.02}
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
		Net:           net,
		ComputeTime:   tc,
		Algorithm:     route.SPH{},
		ResyncTimeout: 4 * round,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plan.Partitions {
		d.SchedulePartitionHeal(p)
	}
	for _, e := range events {
		if e.Join {
			d.Join(e.At, e.Switch, conn, e.Role)
		} else {
			d.Leave(e.At, e.Switch, conn)
		}
	}

	k.Run()
	if err := d.CheckConverged(); err != nil {
		t.Fatalf("mobility soak did not converge: %v", err)
	}
	m := d.Metrics()
	rs := net.Reliability()
	t.Logf("mobility: %d events, reconciles=%d replays=%d resync-requests=%d give-ups=%d rearms=%d",
		m.Events, m.Reconciles, m.Replays, m.ResyncRequests, m.ResyncGiveUps, m.ResyncRearms)
	t.Logf("transport: %s", rs)
	if m.Events != uint64(len(events)) {
		t.Errorf("events = %d, want %d", m.Events, len(events))
	}
	if m.Reconciles == 0 {
		t.Error("two heals triggered no reconciliation")
	}
	if rs.Drops == 0 || rs.GiveUps == 0 {
		t.Error("faults not exercised: the soak proves nothing")
	}
}

package exp

import (
	"fmt"
	"math/rand"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/faults"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/metrics"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// PartitionParams configures the partition sweep: D-GMC over the reliable
// flooding transport while undetected bipartitions open and heal under a
// live membership workload. Each run draws a random graph, a random
// workload, and random bipartitions; every split is later healed and the
// heal reconciliation (core.Machine.ReconcileNeighbor across the former
// boundary) must bring the whole network back to agreement. The sweep
// measures what partitions cost — reconciliation exchanges, replayed
// events, and slower convergence — across network sizes.
type PartitionParams struct {
	// Sizes lists the network sizes to sweep. Defaults to {10, 20, 30}.
	Sizes []int
	// Cycles is the number of partition/heal cycles per run. Defaults to 2.
	Cycles int
	// HealAfterRounds is how many rounds (Tf+Tc) each split stays open.
	// Defaults to 20.
	HealAfterRounds float64
	// Crash additionally isolates one random switch after the last cycle —
	// an undetected single-switch outage (the switch stops hearing the
	// network, as when its process dies; no link-state change is
	// advertised) reconciled back in HealAfterRounds later. This mirrors
	// rt.Cluster.KillNode's transport semantics at simulation scale.
	Crash bool
	// RunsPerPoint is the number of independent runs per size. Defaults
	// to 10.
	RunsPerPoint int
	// BaseSeed makes the whole sweep reproducible.
	BaseSeed int64
	// PerHop is the per-hop LSA transmission/processing time. Defaults
	// to 10µs.
	PerHop time.Duration
	// Tc is the topology computation time. Defaults to 500µs.
	Tc time.Duration
	// Events is the number of membership events per run. Defaults to 10.
	Events int
	// ResyncTimeoutRounds sets the gap-recovery timeout in rounds (Tf+Tc).
	// Defaults to 4.
	ResyncTimeoutRounds float64
}

func (p PartitionParams) normalized() PartitionParams {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{10, 20, 30}
	}
	if p.Cycles == 0 {
		p.Cycles = 2
	}
	if p.HealAfterRounds == 0 {
		p.HealAfterRounds = 20
	}
	if p.RunsPerPoint == 0 {
		p.RunsPerPoint = 10
	}
	if p.PerHop == 0 {
		p.PerHop = 10 * time.Microsecond
	}
	if p.Tc == 0 {
		p.Tc = 500 * time.Microsecond
	}
	if p.Events == 0 {
		p.Events = 10
	}
	if p.ResyncTimeoutRounds == 0 {
		p.ResyncTimeoutRounds = 4
	}
	return p
}

// Partition runs the partition sweep and reports, per network size, the
// convergence time in rounds, heal reconciliations per cycle, and replayed
// event LSAs per cycle (means with 95% CIs across RunsPerPoint runs).
// Every run must end fully converged — identical members, stamps, and
// topologies network-wide — or the sweep fails: surviving the splits is
// the experiment's claim, not a best effort.
func Partition(p PartitionParams) (*metrics.Table, error) {
	p = p.normalized()
	title := fmt.Sprintf(
		"Partition sweep — %d split/heal cycle(s) of %.0f rounds (%d runs/point)",
		p.Cycles, p.HealAfterRounds, p.RunsPerPoint)
	if p.Crash {
		title += " + nodal outage"
	}
	t := &metrics.Table{
		Title:   title,
		XLabel:  "switches",
		Columns: []string{"conv-rounds", "reconciles/cycle", "replays/cycle"},
	}
	for _, n := range p.Sizes {
		results, err := parallelMap(p.RunsPerPoint, func(run int) (partitionResult, error) {
			res, err := runPartition(p, n, run)
			if err != nil {
				return partitionResult{}, fmt.Errorf("n=%d run %d: %w", n, run, err)
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		var conv, rec, rep metrics.Sample
		for _, res := range results {
			conv.Add(res.convergenceRounds)
			rec.Add(float64(res.reconciles) / float64(p.Cycles))
			rep.Add(float64(res.replays) / float64(p.Cycles))
		}
		cs, err := conv.Summarize()
		if err != nil {
			return nil, err
		}
		rs, err := rec.Summarize()
		if err != nil {
			return nil, err
		}
		ps, err := rep.Summarize()
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(float64(n), cs, rs, ps); err != nil {
			return nil, err
		}
	}
	return t, nil
}

type partitionResult struct {
	convergenceRounds float64
	reconciles        uint64
	replays           uint64
}

// runPartition executes one partitioned simulation run: the workload plays
// out while Cycles random bipartitions open and heal in sequence, each
// split lasting HealAfterRounds rounds with a HealAfterRounds gap before
// the next.
func runPartition(p PartitionParams, n, run int) (partitionResult, error) {
	seed := p.BaseSeed*104_729 + int64(n)*1_009 + int64(run)
	g, err := topo.Waxman(topo.DefaultGenConfig(n, seed))
	if err != nil {
		return partitionResult{}, err
	}
	tf, err := probeTf(g, p.PerHop)
	if err != nil {
		return partitionResult{}, err
	}
	round := tf + p.Tc

	// Stretch the workload across the fault window so events land before,
	// during, and after the splits.
	window := time.Duration((2*float64(p.Cycles) + 2) * p.HealAfterRounds * float64(round))
	events, err := workload.Sparse(workload.Config{
		N:       n,
		Events:  p.Events,
		Seed:    seed ^ 0x5bd1_e995,
		Start:   round,
		MeanGap: window / time.Duration(p.Events),
	})
	if err != nil {
		return partitionResult{}, err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x9e37_79b9))
	healSpan := sim.Time(p.HealAfterRounds * float64(round))
	var parts []faults.Partition
	at := healSpan
	for c := 0; c < p.Cycles; c++ {
		parts = append(parts, faults.Partition{
			Groups: randomBipartition(rng, n),
			At:     at,
			HealAt: at + healSpan,
		})
		at += 2 * healSpan
	}
	if p.Crash {
		// Undetected single-switch outage in the quiet gap after the last
		// cycle: the victim stops hearing (and reaching) everyone, then is
		// reconciled back in like any healed partition.
		victim := topo.SwitchID(rng.Intn(n))
		rest := make([]topo.SwitchID, 0, n-1)
		for s := 0; s < n; s++ {
			if topo.SwitchID(s) != victim {
				rest = append(rest, topo.SwitchID(s))
			}
		}
		parts = append(parts, faults.Partition{
			Groups: [][]topo.SwitchID{{victim}, rest},
			At:     at,
			HealAt: at + healSpan,
		})
	}

	k := sim.NewKernel()
	inj, err := faults.New(k, faults.Plan{Seed: seed, Partitions: parts})
	if err != nil {
		return partitionResult{}, err
	}
	// A tight retry budget keeps cross-boundary frames from consuming the
	// whole split retrying: the transport gives up, and the heal
	// reconciliation repairs the loss.
	net, err := flood.New(k, g, p.PerHop, flood.Reliable,
		flood.WithFaults(inj), flood.WithRetryBudget(2))
	if err != nil {
		return partitionResult{}, err
	}
	d, err := core.NewDomain(k, core.Config{
		Net:           net,
		ComputeTime:   p.Tc,
		Algorithm:     route.SPH{},
		Kinds:         map[lsa.ConnID]mctree.Kind{experimentConn: mctree.Symmetric},
		ResyncTimeout: sim.Time(p.ResyncTimeoutRounds * float64(round)),
	})
	if err != nil {
		return partitionResult{}, err
	}
	for _, pt := range parts {
		d.SchedulePartitionHeal(pt)
	}
	for _, e := range events {
		if e.Join {
			d.Join(e.At, e.Switch, experimentConn, e.Role)
		} else {
			d.Leave(e.At, e.Switch, experimentConn)
		}
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return partitionResult{}, fmt.Errorf("run did not converge: %w", err)
	}
	first, _ := workload.Span(events)
	m := d.Metrics()
	res := partitionResult{reconciles: m.Reconciles, replays: m.Replays}
	if d.LastInstall() > first && round > 0 {
		res.convergenceRounds = float64(d.LastInstall()-first) / float64(round)
	}
	return res, nil
}

// randomBipartition splits switches 0..n-1 into two non-empty groups.
func randomBipartition(rng *rand.Rand, n int) [][]topo.SwitchID {
	for {
		var a, b []topo.SwitchID
		for s := 0; s < n; s++ {
			if rng.Intn(2) == 0 {
				a = append(a, topo.SwitchID(s))
			} else {
				b = append(b, topo.SwitchID(s))
			}
		}
		if len(a) > 0 && len(b) > 0 {
			return [][]topo.SwitchID{a, b}
		}
	}
}

package workload

import (
	"fmt"
	"math/rand"

	"dgmc/internal/faults"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// MobilityConfig parameterizes the mobility scenario: membership churn
// (the embedded Config, with Churn semantics) overlaid with repeated random
// network bipartitions and periodically flapping links — the workload of a
// network whose links come and go under motion, not just a lossy one.
type MobilityConfig struct {
	Config
	// Graph is the fabric the faults act on: partitions are drawn as
	// random connected cuts of it and flaps hit its real links. Required.
	Graph *topo.Graph
	// Partitions is the number of split/heal cycles spread evenly across
	// the event sequence (zero for none). Each split lasts an eighth of the
	// event span.
	Partitions int
	// FlapLinks is how many distinct links flap periodically (zero for
	// none), each as PeriodicFlaps with a period of an eighth of the event
	// span, flapDuty and flapCycles.
	FlapLinks int
}

// The flapping links' duty cycle and cycle count (see PeriodicFlaps).
const (
	flapDuty   = 0.3
	flapCycles = 4
)

// Mobility generates a churn event sequence plus the fault plan that
// batters it: Partitions random bipartitions of the graph, each held for
// an eighth of the event span and then healed, and FlapLinks links flapping periodically
// throughout. Everything derives from cfg.Seed, so a mobility run is
// reproducible from its config alone. Pair the returned plan with
// core.Domain.SchedulePartitionHeal so each heal also triggers protocol
// reconciliation.
func Mobility(cfg MobilityConfig) ([]Event, faults.Plan, error) {
	if cfg.Graph == nil {
		return nil, faults.Plan{}, fmt.Errorf("workload: mobility needs a graph")
	}
	if cfg.Graph.NumSwitches() != cfg.N {
		return nil, faults.Plan{}, fmt.Errorf("workload: graph has %d switches, config says %d",
			cfg.Graph.NumSwitches(), cfg.N)
	}
	if cfg.Partitions < 0 || cfg.FlapLinks < 0 {
		return nil, faults.Plan{}, fmt.Errorf("workload: negative fault counts")
	}
	events, err := Churn(cfg.Config)
	if err != nil {
		return nil, faults.Plan{}, err
	}
	first, last := Span(events)
	span := last - first
	if span <= 0 {
		span = cfg.MeanGap * sim.Time(cfg.Events)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7f4a7c15))
	plan := faults.Plan{Seed: cfg.Seed}

	if cfg.Partitions > 0 {
		hold := max(span/8, 1)
		// Spread the splits evenly across the span, each healing before the
		// next begins (one partition at a time keeps heals attributable).
		gap := span / sim.Time(cfg.Partitions+1)
		if gap <= hold {
			return nil, faults.Plan{}, fmt.Errorf(
				"workload: %d partitions holding %v each do not fit a span of %v", cfg.Partitions, hold, span)
		}
		for i := 0; i < cfg.Partitions; i++ {
			at := first + gap*sim.Time(i+1)
			plan.Partitions = append(plan.Partitions, faults.Partition{
				Groups: randomBipartition(rng, cfg.Graph),
				At:     at,
				HealAt: at + hold,
			})
		}
	}

	if cfg.FlapLinks > 0 {
		links := allLinks(cfg.Graph)
		if cfg.FlapLinks > len(links) {
			return nil, faults.Plan{}, fmt.Errorf("workload: %d flap links but the graph has %d", cfg.FlapLinks, len(links))
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		period := max(span/8, 2)
		for _, l := range links[:cfg.FlapLinks] {
			// Stagger starts so the flapping links are not phase-locked.
			start := first + sim.Time(rng.Int63n(int64(period)))
			plan.Flaps = append(plan.Flaps, faults.PeriodicFlaps(l[0], l[1], start, period, flapDuty, flapCycles)...)
		}
	}

	if err := plan.Validate(); err != nil {
		return nil, faults.Plan{}, err
	}
	return events, plan, nil
}

// randomBipartition splits the graph into a random connected half and the
// rest: a BFS from a random seed switch claims about half the network for
// group A (so intra-A flooding keeps working during the split), and group B
// gets everything else. B's fragments each border A in a connected graph,
// so heal reconciliation across the boundary reaches all of them.
func randomBipartition(rng *rand.Rand, g *topo.Graph) [][]topo.SwitchID {
	n := g.NumSwitches()
	want := n / 2
	if want < 1 {
		want = 1
	}
	start := topo.SwitchID(rng.Intn(n))
	inA := map[topo.SwitchID]bool{start: true}
	queue := []topo.SwitchID{start}
	a := []topo.SwitchID{start}
	for len(queue) > 0 && len(a) < want {
		s := queue[0]
		queue = queue[1:]
		nbs := append([]topo.SwitchID(nil), g.Neighbors(s)...)
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		for _, nb := range nbs {
			if !inA[nb] && len(a) < want {
				inA[nb] = true
				a = append(a, nb)
				queue = append(queue, nb)
			}
		}
	}
	var b []topo.SwitchID
	for s := 0; s < n; s++ {
		if !inA[topo.SwitchID(s)] {
			b = append(b, topo.SwitchID(s))
		}
	}
	sortSwitches(a)
	sortSwitches(b)
	return [][]topo.SwitchID{a, b}
}

// allLinks lists the graph's links once each (a < b).
func allLinks(g *topo.Graph) [][2]topo.SwitchID {
	var out [][2]topo.SwitchID
	for s := 0; s < g.NumSwitches(); s++ {
		a := topo.SwitchID(s)
		for _, b := range g.Neighbors(a) {
			if a < b {
				out = append(out, [2]topo.SwitchID{a, b})
			}
		}
	}
	return out
}

package exp

import (
	"fmt"

	"dgmc/internal/bruteforce"
	"dgmc/internal/flood"
	"dgmc/internal/metrics"
	"dgmc/internal/mospf"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// RunBruteForce executes the brute-force LSR-based MC baseline over the
// same workload and returns its computations-per-event ratio.
func RunBruteForce(p Params, g *topo.Graph, events []workload.Event) (float64, error) {
	p = p.normalized()
	k := sim.NewKernel()
	net, err := flood.New(k, g, p.PerHop, flood.Direct)
	if err != nil {
		return 0, err
	}
	d, err := bruteforce.NewDomain(k, bruteforce.Config{Net: net, ComputeTime: p.Tc, Algorithm: p.Algorithm})
	if err != nil {
		return 0, err
	}
	for _, e := range events {
		if e.Join {
			d.Join(e.At, e.Switch, experimentConn, e.Role)
		} else {
			d.Leave(e.At, e.Switch, experimentConn)
		}
	}
	k.Run()
	m := d.Metrics()
	if m.Events == 0 {
		return 0, fmt.Errorf("exp: brute-force run saw no events")
	}
	return float64(m.Computations) / float64(m.Events), nil
}

// RunMOSPF executes the MOSPF baseline: each membership event is followed
// one round later by a datagram from the group's first member (the
// data-driven trigger RFC 1584 relies on). It returns computations per
// event.
func RunMOSPF(p Params, g *topo.Graph, events []workload.Event) (float64, error) {
	p = p.normalized()
	k := sim.NewKernel()
	net, err := flood.New(k, g, p.PerHop, flood.Direct)
	if err != nil {
		return 0, err
	}
	tf, err := net.FloodTime()
	if err != nil {
		return 0, err
	}
	round := tf + p.Tc
	d, err := mospf.NewDomain(k, mospf.Config{Net: net, ComputeTime: p.Tc})
	if err != nil {
		return 0, err
	}
	const group mospf.GroupID = 1
	members := map[topo.SwitchID]bool{}
	var source topo.SwitchID = topo.NoSwitch
	for _, e := range events {
		if e.Join {
			d.Join(e.At, e.Switch, group)
			members[e.Switch] = true
			if source == topo.NoSwitch || e.Switch < source {
				source = e.Switch
			}
		} else {
			d.Leave(e.At, e.Switch, group)
			delete(members, e.Switch)
		}
		// The next data packet after the event re-triggers computation at
		// every on-tree switch.
		if source != topo.NoSwitch {
			d.SendDatagram(e.At+round, source, group)
		}
	}
	k.Run()
	m := d.Metrics()
	if m.Events == 0 {
		return 0, fmt.Errorf("exp: MOSPF run saw no events")
	}
	return float64(m.Computations) / float64(m.Events), nil
}

// Baselines runs the three protocols over identical workloads and reports
// topology computations per event — the comparison the paper's §2 and §4
// make: D-GMC stays a small constant while MOSPF scales with the MC size
// and brute force with the network size.
func Baselines(p Params, overrides func(*Params)) (*metrics.Table, error) {
	p = p.normalized()
	if overrides != nil {
		overrides(&p)
	}
	table := &metrics.Table{
		Title:   "Baseline comparison — topology computations per event",
		XLabel:  "switches",
		Columns: []string{"D-GMC", "MOSPF", "brute force"},
	}
	type baselinePoint struct {
		dg, mo, bf float64
	}
	for _, n := range p.Sizes {
		points, err := parallelMap(p.GraphsPerSize, func(i int) (baselinePoint, error) {
			g, err := buildGraph(p, n, i)
			if err != nil {
				return baselinePoint{}, err
			}
			tf, err := probeTf(g, p.PerHop)
			if err != nil {
				return baselinePoint{}, err
			}
			events, err := buildEvents(p, n, i, tf+p.Tc)
			if err != nil {
				return baselinePoint{}, err
			}
			res, err := RunDGMC(p, g, events)
			if err != nil {
				return baselinePoint{}, fmt.Errorf("dgmc size %d graph %d: %w", n, i, err)
			}
			mv, err := RunMOSPF(p, g, events)
			if err != nil {
				return baselinePoint{}, fmt.Errorf("mospf size %d graph %d: %w", n, i, err)
			}
			bv, err := RunBruteForce(p, g, events)
			if err != nil {
				return baselinePoint{}, fmt.Errorf("bruteforce size %d graph %d: %w", n, i, err)
			}
			return baselinePoint{dg: res.ProposalsPerEvent(), mo: mv, bf: bv}, nil
		})
		if err != nil {
			return nil, err
		}
		var dg, mo, bf metrics.Sample
		for _, pt := range points {
			dg.Add(pt.dg)
			mo.Add(pt.mo)
			bf.Add(pt.bf)
		}
		ds, err := dg.Summarize()
		if err != nil {
			return nil, err
		}
		ms, err := mo.Summarize()
		if err != nil {
			return nil, err
		}
		bs, err := bf.Summarize()
		if err != nil {
			return nil, err
		}
		if err := table.AddRow(float64(n), ds, ms, bs); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// DefaultBaselineParams uses the normal-traffic (sparse) regime of
// Experiment 3 — the "most situations" case in which the paper makes its
// comparison: D-GMC costs one computation per event, MOSPF one per on-tree
// switch, and brute force one per network switch. (Under bursts MOSPF's
// routing cache amortizes several membership events into the next datagram,
// which blurs the per-event accounting without changing who wins overall.)
func DefaultBaselineParams() Params {
	return Experiment3Params()
}

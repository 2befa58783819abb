// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus the ablations called out in DESIGN.md §7. Each figure benchmark runs
// one representative simulation per iteration at a mid-sweep network size
// and reports the figure's headline metrics via b.ReportMetric; the full
// sweeps with confidence intervals are produced by cmd/dgmcbench.
package dgmc_test

import (
	"fmt"
	"testing"
	"time"

	"dgmc/internal/cbt"
	"dgmc/internal/exp"
	"dgmc/internal/flood"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

const benchSize = 60 // mid-point of the paper's 20..100 sweep

// runFigure executes one simulation per iteration under p and reports the
// figure's metrics.
func runFigure(b *testing.B, p exp.Params) {
	b.Helper()
	var propSum, floodSum, convSum float64
	for i := 0; i < b.N; i++ {
		g, err := topo.Waxman(topo.DefaultGenConfig(benchSize, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		k := sim.NewKernel()
		net, err := flood.New(k, g, p.PerHop, flood.Direct)
		if err != nil {
			b.Fatal(err)
		}
		tf, err := net.FloodTime()
		if err != nil {
			b.Fatal(err)
		}
		round := tf + p.Tc
		cfg := workload.Config{N: benchSize, Events: p.Events, Seed: int64(i) + 1, Start: round}
		var events []workload.Event
		if p.Bursty {
			cfg.Window = round
			events, err = workload.Bursty(cfg)
		} else {
			cfg.MeanGap = time.Duration(p.SparseGapRounds * float64(round))
			events, err = workload.Sparse(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		res, err := exp.RunDGMC(p, g, events)
		if err != nil {
			b.Fatal(err)
		}
		propSum += res.ProposalsPerEvent()
		floodSum += res.FloodingsPerEvent()
		convSum += res.ConvergenceRounds
	}
	n := float64(b.N)
	b.ReportMetric(propSum/n, "proposals/event")
	b.ReportMetric(floodSum/n, "floodings/event")
	if p.Bursty {
		b.ReportMetric(convSum/n, "convergence-rounds")
	}
}

// BenchmarkExperiment1 regenerates Figure 6: bursty events with the
// computation time dominating the per-hop LSA time.
func BenchmarkExperiment1(b *testing.B) {
	runFigure(b, exp.Experiment1Params())
}

// BenchmarkExperiment2 regenerates Figure 7: bursty events with the
// flooding diameter dominating the computation time.
func BenchmarkExperiment2(b *testing.B) {
	runFigure(b, exp.Experiment2Params())
}

// BenchmarkExperiment3 regenerates Figure 8: normal traffic periods.
func BenchmarkExperiment3(b *testing.B) {
	runFigure(b, exp.Experiment3Params())
}

// BenchmarkBaselines regenerates the §2/§4 comparison: topology
// computations per event under D-GMC, MOSPF, and the brute-force protocol,
// over identical sparse workloads.
func BenchmarkBaselines(b *testing.B) {
	p := exp.DefaultBaselineParams()
	setup := func(i int) (*topo.Graph, []workload.Event) {
		g, err := topo.Waxman(topo.DefaultGenConfig(benchSize, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		k := sim.NewKernel()
		net, err := flood.New(k, g, p.PerHop, flood.Direct)
		if err != nil {
			b.Fatal(err)
		}
		tf, err := net.FloodTime()
		if err != nil {
			b.Fatal(err)
		}
		round := tf + p.Tc
		events, err := workload.Sparse(workload.Config{
			N: benchSize, Events: p.Events, Seed: int64(i) + 1,
			Start: round, MeanGap: time.Duration(p.SparseGapRounds * float64(round)),
		})
		if err != nil {
			b.Fatal(err)
		}
		return g, events
	}
	b.Run("dgmc", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			g, events := setup(i)
			res, err := exp.RunDGMC(p, g, events)
			if err != nil {
				b.Fatal(err)
			}
			sum += res.ProposalsPerEvent()
		}
		b.ReportMetric(sum/float64(b.N), "computations/event")
	})
	b.Run("mospf", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			g, events := setup(i)
			v, err := exp.RunMOSPF(p, g, events)
			if err != nil {
				b.Fatal(err)
			}
			sum += v
		}
		b.ReportMetric(sum/float64(b.N), "computations/event")
	})
	b.Run("bruteforce", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			g, events := setup(i)
			v, err := exp.RunBruteForce(p, g, events)
			if err != nil {
				b.Fatal(err)
			}
			sum += v
		}
		b.ReportMetric(sum/float64(b.N), "computations/event")
	})
}

// BenchmarkTreeQuality regenerates the §5 CBT comparison: shared-tree cost
// ratio and traffic concentration.
func BenchmarkTreeQuality(b *testing.B) {
	var ratioSum, cbtMaxSum, srcMaxSum float64
	members := 8
	for i := 0; i < b.N; i++ {
		g, err := topo.Waxman(topo.DefaultGenConfig(benchSize, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		ms := mctree.Members{}
		ids := make([]topo.SwitchID, 0, members)
		for s := 0; len(ms) < members; s += benchSize/members - 1 {
			id := topo.SwitchID(s % benchSize)
			if _, ok := ms[id]; ok {
				id = topo.SwitchID((s + 1) % benchSize)
			}
			ms[id] = mctree.SenderReceiver
			ids = append(ids, id)
		}
		steiner, err := (route.SPH{}).Compute(g, mctree.Symmetric, ms)
		if err != nil {
			b.Fatal(err)
		}
		cb := route.NewCoreBased()
		coreSwitch, err := cb.SelectCore(g, ms)
		if err != nil {
			b.Fatal(err)
		}
		shared, err := cbt.New(g, coreSwitch)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ids {
			if err := shared.Join(m); err != nil {
				b.Fatal(err)
			}
		}
		if c := steiner.Cost(g); c > 0 {
			ratioSum += float64(shared.MCTree().Cost(g)) / float64(c)
		}
		loads, err := shared.SharedTreeLoads(ids)
		if err != nil {
			b.Fatal(err)
		}
		cbtMaxSum += loads.Max()
		src, err := cbt.SourceTreeLoads(g, ids, ids)
		if err != nil {
			b.Fatal(err)
		}
		srcMaxSum += src.Max()
	}
	n := float64(b.N)
	b.ReportMetric(ratioSum/n, "cost-ratio")
	b.ReportMetric(cbtMaxSum/n, "cbt-max-load")
	b.ReportMetric(srcMaxSum/n, "srctree-max-load")
}

// BenchmarkIncrementalVsScratch ablates §3.5's incremental-update
// recommendation: the wall-clock cost of adapting a tree to one join versus
// recomputing it.
func BenchmarkIncrementalVsScratch(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(100, 7))
	if err != nil {
		b.Fatal(err)
	}
	members := mctree.Members{}
	for s := 0; len(members) < 12; s += 7 {
		members[topo.SwitchID(s%100)] = mctree.SenderReceiver
	}
	base, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		b.Fatal(err)
	}
	joined := topo.SwitchID(55)
	grown := members.Clone()
	grown[joined] = mctree.SenderReceiver

	b.Run("incremental", func(b *testing.B) {
		alg := route.NewIncremental(route.SPH{})
		for i := 0; i < b.N; i++ {
			if _, err := alg.Update(g, mctree.Symmetric, grown, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (route.SPH{}).Compute(g, mctree.Symmetric, grown); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteiner compares the pluggable topology algorithms' costs.
func BenchmarkSteiner(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(100, 3))
	if err != nil {
		b.Fatal(err)
	}
	members := mctree.Members{}
	for s := 0; len(members) < 10; s += 9 {
		members[topo.SwitchID(s%100)] = mctree.SenderReceiver
	}
	for _, alg := range []route.Algorithm{route.SPH{}, route.KMB{}, route.SPT{}, route.NewCoreBased()} {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Compute(g, mctree.Symmetric, members); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloodModes ablates the Direct (analytic) flooding model against
// true hop-by-hop forwarding: identical arrival times, different simulator
// cost.
func BenchmarkFloodModes(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(60, 5))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []flood.Mode{flood.Direct, flood.HopByHop, flood.TreeBased} {
		b.Run(mode.String(), func(b *testing.B) {
			var copies uint64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				net, err := flood.New(k, g, 2*time.Microsecond, mode)
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < 10; f++ {
					net.Flood(topo.SwitchID(f*5), f)
				}
				k.Run()
				copies = net.Copies()
			}
			b.ReportMetric(float64(copies)/10, "copies/flood")
		})
	}
}

// BenchmarkTimestamps measures the vector-timestamp operations on the
// protocol's hot path at various network sizes.
func BenchmarkTimestamps(b *testing.B) {
	for _, n := range []int{100, 400} {
		a := stamp.New(n)
		c := stamp.New(n)
		for i := 0; i < n; i += 3 {
			a.Inc(i)
			c.Inc((i + 1) % n)
		}
		b.Run(fmt.Sprintf("geq-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.Geq(c)
			}
		})
		b.Run(fmt.Sprintf("max-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MaxInPlace(c)
			}
		})
	}
}

// BenchmarkDelayBounded ablates the QoS extension: tree cost as the delay
// bound tightens from "never binds" down to the tightest satisfiable bound.
func BenchmarkDelayBounded(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(80, 11))
	if err != nil {
		b.Fatal(err)
	}
	members := mctree.Members{}
	for s := 0; len(members) < 10; s += 7 {
		members[topo.SwitchID(s%80)] = mctree.SenderReceiver
	}
	root := members.IDs()[0]
	spt := g.ShortestPaths(root)
	var worst time.Duration
	for _, m := range members.IDs() {
		if spt.Delay[m] > worst {
			worst = spt.Delay[m]
		}
	}
	for _, mult := range []float64{4, 1.5, 1.0} {
		bound := time.Duration(float64(worst) * mult)
		b.Run(fmt.Sprintf("bound-%.1fx", mult), func(b *testing.B) {
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				tr, err := (route.DelayBounded{Bound: bound}).Compute(g, mctree.Symmetric, members)
				if err != nil {
					b.Fatal(err)
				}
				cost = tr.Cost(g)
			}
			b.ReportMetric(float64(cost.Microseconds()), "tree-cost-µs")
		})
	}
}

// BenchmarkHierarchy regenerates the hierarchical-extension comparison:
// flood transmissions per event under flat vs two-level D-GMC.
func BenchmarkHierarchy(b *testing.B) {
	var flat, hier float64
	for i := 0; i < b.N; i++ {
		table, err := exp.Hierarchy(exp.HierarchyParams{
			AreaCounts:   []int{6},
			AreaSize:     10,
			RunsPerPoint: 2,
			BaseSeed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		row := table.Rows[0]
		flat += row.Cells[0].Mean
		hier += row.Cells[1].Mean
	}
	b.ReportMetric(flat/float64(b.N), "copies/event-flat")
	b.ReportMetric(hier/float64(b.N), "copies/event-hier")
}

// BenchmarkKernel measures raw simulator event throughput.
func BenchmarkKernel(b *testing.B) {
	k := sim.NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, func() {})
		k.Run()
	}
}

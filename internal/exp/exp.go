// Package exp is the experiment harness: it wires networks, protocols, and
// workloads together inside the simulator and regenerates every figure of
// the paper's evaluation (§4) plus the comparisons the text makes against
// MOSPF, the brute-force LSR protocol, and CBT.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//   - Experiment1 — Figure 6(a,b,c): bursty events, computation dominates.
//   - Experiment2 — Figure 7(a,b,c): bursty events, communication dominates.
//   - Experiment3 — Figure 8(a,b): normal (sparse) traffic.
//   - Baselines — §2/§4 claim: D-GMC ≪ MOSPF ≪ brute force computations.
//   - TreeQuality — §5 claim: CBT trees are efficient but concentrate
//     traffic.
package exp

import (
	"fmt"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/faults"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/metrics"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// DefaultSizes are the network sizes swept by every experiment.
var DefaultSizes = []int{20, 40, 60, 80, 100}

// Params configures one experiment sweep.
type Params struct {
	// Sizes lists the network sizes to sweep. Defaults to DefaultSizes.
	Sizes []int
	// GraphsPerSize is the number of random graphs per size (the paper
	// uses 20 per size). Defaults to 20.
	GraphsPerSize int
	// BaseSeed makes the whole sweep reproducible.
	BaseSeed int64
	// PerHop is the per-hop LSA transmission/processing time.
	PerHop time.Duration
	// Tc is the topology computation time.
	Tc time.Duration
	// Events is the number of membership events per run. Defaults to 10.
	Events int
	// Bursty selects clustered conflicting events; otherwise sparse.
	Bursty bool
	// BurstWindowRounds sizes the burst window in units of one round
	// (Tf+Tc). Defaults to 1.
	BurstWindowRounds float64
	// SparseGapRounds is the mean inter-event gap in rounds for sparse
	// workloads. Defaults to 20.
	SparseGapRounds float64
	// Algorithm computes MC topologies. Defaults to route.SPH{}.
	Algorithm route.Algorithm
	// Mode selects the flooding transport. Defaults to flood.Direct, the
	// analytic model the paper's experiments assume.
	Mode flood.Mode
	// Faults injects transport faults into every run (requires
	// Mode == flood.Reliable). The plan's Seed is used as given, so two
	// runs with identical Params see identical faults.
	Faults *faults.Plan
	// RetryBudget bounds reliable retransmission attempts per link copy
	// (0 = the flood package default).
	RetryBudget int
	// ResyncTimeoutRounds enables gap recovery: the domain's resync timeout
	// is set to this many rounds (Tf+Tc). Zero disables resync.
	ResyncTimeoutRounds float64
}

func (p Params) normalized() Params {
	if len(p.Sizes) == 0 {
		p.Sizes = DefaultSizes
	}
	if p.GraphsPerSize == 0 {
		p.GraphsPerSize = 20
	}
	if p.Events == 0 {
		p.Events = 10
	}
	if p.BurstWindowRounds == 0 {
		p.BurstWindowRounds = 1
	}
	if p.SparseGapRounds == 0 {
		p.SparseGapRounds = 20
	}
	if p.Algorithm == nil {
		p.Algorithm = route.SPH{}
	}
	if p.Mode == 0 {
		p.Mode = flood.Direct
	}
	return p
}

// Experiment1Params returns the paper's Experiment 1 setting: per-hop LSA
// transmission time (10µs, the ATM testbed's AAL-5 figure) far below the
// topology computation time.
func Experiment1Params() Params {
	return Params{
		PerHop: 10 * time.Microsecond,
		Tc:     500 * time.Microsecond,
		Bursty: true,
	}.normalized()
}

// Experiment2Params returns the paper's Experiment 2 setting: the flooding
// diameter Tf significantly exceeds Tc (a WAN).
func Experiment2Params() Params {
	return Params{
		PerHop: 1 * time.Millisecond,
		Tc:     100 * time.Microsecond,
		Bursty: true,
	}.normalized()
}

// Experiment3Params returns the paper's Experiment 3 setting: normal
// traffic periods, with the Experiment 1 timing parameters but events
// spread many rounds apart.
func Experiment3Params() Params {
	return Params{
		PerHop: 10 * time.Microsecond,
		Tc:     500 * time.Microsecond,
		Bursty: false,
	}.normalized()
}

// RunResult reports one simulation run.
type RunResult struct {
	N                 int
	Events            uint64
	Computations      uint64
	Floodings         uint64
	Withdrawn         uint64
	Tf                time.Duration
	Round             time.Duration
	ConvergenceRounds float64
	// Retransmits and Resyncs report the reliable transport's recovery
	// effort (both zero under Direct/HopByHop/TreeBased, and under
	// Reliable on a fault-free fabric).
	Retransmits uint64
	Resyncs     uint64
}

// ProposalsPerEvent returns topology computations per event.
func (r RunResult) ProposalsPerEvent() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Computations) / float64(r.Events)
}

// FloodingsPerEvent returns flooding operations per event.
func (r RunResult) FloodingsPerEvent() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Floodings) / float64(r.Events)
}

// RetransmitsPerEvent returns link-level retransmissions per event.
func (r RunResult) RetransmitsPerEvent() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Retransmits) / float64(r.Events)
}

const experimentConn lsa.ConnID = 1

// buildGraph returns the i-th random graph for size n under the sweep seed.
func buildGraph(p Params, n int, i int) (*topo.Graph, error) {
	seed := p.BaseSeed*1_000_003 + int64(n)*1_009 + int64(i)
	return topo.Waxman(topo.DefaultGenConfig(n, seed))
}

// buildEvents generates the run's membership events given the network's
// round length.
func buildEvents(p Params, n int, i int, round time.Duration) ([]workload.Event, error) {
	cfg := workload.Config{
		N:      n,
		Events: p.Events,
		Seed:   p.BaseSeed*7_368_787 + int64(n)*31 + int64(i),
		// The first event comes one round in. The protocol needs no such
		// offset; every figure and golden table was generated with it.
		Start: round,
	}
	if p.Bursty {
		cfg.Window = time.Duration(p.BurstWindowRounds * float64(round))
		return workload.Bursty(cfg)
	}
	cfg.MeanGap = time.Duration(p.SparseGapRounds * float64(round))
	return workload.Sparse(cfg)
}

// RunDGMC executes one D-GMC simulation run over graph g with the given
// events and returns its metrics. The run must converge; a convergence
// failure is returned as an error.
func RunDGMC(p Params, g *topo.Graph, events []workload.Event) (RunResult, error) {
	p = p.normalized()
	k := sim.NewKernel()
	var opts []flood.Option
	if p.RetryBudget > 0 {
		opts = append(opts, flood.WithRetryBudget(p.RetryBudget))
	}
	if p.Faults != nil {
		inj, err := faults.New(k, *p.Faults)
		if err != nil {
			return RunResult{}, err
		}
		opts = append(opts, flood.WithFaults(inj))
	}
	net, err := flood.New(k, g, p.PerHop, p.Mode, opts...)
	if err != nil {
		return RunResult{}, err
	}
	tf, err := net.FloodTime()
	if err != nil {
		return RunResult{}, err
	}
	cfg := core.Config{Net: net, ComputeTime: p.Tc, Algorithm: p.Algorithm}
	if p.ResyncTimeoutRounds > 0 {
		cfg.ResyncTimeout = sim.Time(p.ResyncTimeoutRounds * float64(tf+p.Tc))
	}
	d, err := core.NewDomain(k, cfg)
	if err != nil {
		return RunResult{}, err
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
		return RunResult{}, fmt.Errorf("run did not converge: %w", err)
	}
	first, _ := workload.Span(events)
	round := tf + p.Tc
	m := d.Metrics()
	res := RunResult{
		N:            g.NumSwitches(),
		Events:       m.Events,
		Computations: m.Computations,
		Floodings:    net.Floodings(),
		Withdrawn:    m.Withdrawn,
		Tf:           tf,
		Round:        round,
		Retransmits:  net.Reliability().Retransmits,
		Resyncs:      m.ResyncRequests,
	}
	if d.LastInstall() > first && round > 0 {
		res.ConvergenceRounds = float64(d.LastInstall()-first) / float64(round)
	}
	return res, nil
}

// FigureSet bundles the tables of one experiment: proposals per event (a),
// floodings per event (b), and convergence time in rounds (c, bursty only).
type FigureSet struct {
	Proposals   *metrics.Table
	Floodings   *metrics.Table
	Convergence *metrics.Table // nil for sparse workloads (Figure 8 has no (c))
}

// Sweep runs the full size sweep for one experiment and summarizes the
// paper's three metrics across the random graphs of each size.
func Sweep(name string, p Params) (FigureSet, error) {
	p = p.normalized()
	fs := FigureSet{
		Proposals: &metrics.Table{
			Title:  name + " — topology computations (proposals) per event",
			XLabel: "switches", Columns: []string{"proposals/event"},
		},
		Floodings: &metrics.Table{
			Title:  name + " — flooding operations per event",
			XLabel: "switches", Columns: []string{"floodings/event"},
		},
	}
	if p.Bursty {
		fs.Convergence = &metrics.Table{
			Title:  name + " — convergence time (rounds, round = Tf+Tc)",
			XLabel: "switches", Columns: []string{"rounds"},
		}
	}
	for _, n := range p.Sizes {
		// The replications are independent — each derives its graph and
		// workload from (n, i) — so they fan out across the worker pool.
		results, err := parallelMap(p.GraphsPerSize, func(i int) (RunResult, error) {
			g, err := buildGraph(p, n, i)
			if err != nil {
				return RunResult{}, err
			}
			// Round length depends on the graph; probe Tf first.
			tf, err := probeTf(g, p.PerHop)
			if err != nil {
				return RunResult{}, err
			}
			events, err := buildEvents(p, n, i, tf+p.Tc)
			if err != nil {
				return RunResult{}, err
			}
			res, err := RunDGMC(p, g, events)
			if err != nil {
				return RunResult{}, fmt.Errorf("size %d graph %d: %w", n, i, err)
			}
			return res, nil
		})
		if err != nil {
			return FigureSet{}, err
		}
		var prop, fld, conv metrics.Sample
		for _, res := range results {
			prop.Add(res.ProposalsPerEvent())
			fld.Add(res.FloodingsPerEvent())
			conv.Add(res.ConvergenceRounds)
		}
		ps, err := prop.Summarize()
		if err != nil {
			return FigureSet{}, err
		}
		fd, err := fld.Summarize()
		if err != nil {
			return FigureSet{}, err
		}
		if err := fs.Proposals.AddRow(float64(n), ps); err != nil {
			return FigureSet{}, err
		}
		if err := fs.Floodings.AddRow(float64(n), fd); err != nil {
			return FigureSet{}, err
		}
		if fs.Convergence != nil {
			cs, err := conv.Summarize()
			if err != nil {
				return FigureSet{}, err
			}
			if err := fs.Convergence.AddRow(float64(n), cs); err != nil {
				return FigureSet{}, err
			}
		}
	}
	return fs, nil
}

// probeTf computes the flooding diameter of g without building a domain.
func probeTf(g *topo.Graph, perHop time.Duration) (time.Duration, error) {
	k := sim.NewKernel()
	net, err := flood.New(k, g, perHop, flood.Direct)
	if err != nil {
		return 0, err
	}
	return net.FloodTime()
}

// Experiment1 regenerates Figure 6.
func Experiment1(overrides func(*Params)) (FigureSet, error) {
	p := Experiment1Params()
	if overrides != nil {
		overrides(&p)
	}
	return Sweep("Experiment 1 (Figure 6): bursty events, computation dominates", p)
}

// Experiment2 regenerates Figure 7.
func Experiment2(overrides func(*Params)) (FigureSet, error) {
	p := Experiment2Params()
	if overrides != nil {
		overrides(&p)
	}
	return Sweep("Experiment 2 (Figure 7): bursty events, communication dominates", p)
}

// Experiment3 regenerates Figure 8.
func Experiment3(overrides func(*Params)) (FigureSet, error) {
	p := Experiment3Params()
	if overrides != nil {
		overrides(&p)
	}
	return Sweep("Experiment 3 (Figure 8): normal traffic periods", p)
}

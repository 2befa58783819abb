// Command dgmcsim runs one D-GMC simulation and prints a protocol trace and
// summary — useful for watching the protocol converge step by step.
//
//	dgmcsim -n 20 -events 8 -burst -trace
//	dgmcsim -n 50 -events 12 -algorithm kmb -kind asymmetric
//	dgmcsim -n 20 -mode reliable -drop 0.1 -resync 4
//	dgmcsim -n 8 -mode reliable -resync 4 -partition "0,1,2,3/4,5,6,7" -heal-after 20
//	dgmcsim -n 8 -mode reliable -resync 4 -crash 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/faults"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgmcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgmcsim", flag.ContinueOnError)
	n := fs.Int("n", 20, "number of switches")
	events := fs.Int("events", 6, "membership events to inject")
	seed := fs.Int64("seed", 1, "random seed")
	burst := fs.Bool("burst", false, "cluster events in one round (bursty) instead of sparse")
	algName := fs.String("algorithm", "sph", "topology algorithm: sph, kmb, spt, cbt, incremental")
	kindName := fs.String("kind", "symmetric", "MC kind: symmetric, receiver-only, asymmetric")
	tc := fs.Duration("tc", 500*time.Microsecond, "topology computation time Tc")
	perHop := fs.Duration("perhop", 10*time.Microsecond, "per-hop LSA transmission time")
	trace := fs.Bool("trace", false, "print the full protocol trace")
	traceOut := fs.String("trace-out", "", "write causal span trees (JSON) to this file")
	metricsOut := fs.String("metrics-out", "", "write run metrics (Prometheus text format) to this file")
	failLink := fs.Bool("faillink", false, "after convergence, fail a link on the MC tree and show the repair")
	reopt := fs.Float64("reopt", 0, "re-optimization threshold for link recoveries (0 = off)")
	modeName := fs.String("mode", "direct", "flooding transport: direct, hopbyhop, tree, reliable")
	drop := fs.Float64("drop", 0, "per-transmission drop probability (requires -mode reliable)")
	dup := fs.Float64("dup", 0, "per-transmission duplication probability (requires -mode reliable)")
	jitter := fs.Duration("jitter", 0, "max per-transmission delay jitter (requires -mode reliable)")
	resync := fs.Float64("resync", 0, "resync timeout in rounds (0 = off)")
	partSpec := fs.String("partition", "", `split the network mid-run into groups, e.g. "0,1/2,3" (requires -mode reliable and -resync)`)
	healAfter := fs.Float64("heal-after", 20, "rounds a -partition or -crash outage lasts before healing")
	crash := fs.Int("crash", -1, "isolate this switch mid-run, as if it crashed undetected (requires -mode reliable and -resync)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("-n %d: need at least 2 switches", *n)
	}
	if *events < 1 {
		return fmt.Errorf("-events %d: need at least one membership event", *events)
	}
	if *tc < 0 {
		return fmt.Errorf("-tc %v: computation time cannot be negative", *tc)
	}
	if *perHop <= 0 {
		return fmt.Errorf("-perhop %v: per-hop time must be positive", *perHop)
	}
	if *reopt < 0 {
		return fmt.Errorf("-reopt %g: threshold cannot be negative", *reopt)
	}
	if *drop < 0 || *drop > 1 {
		return fmt.Errorf("-drop %g: probability outside [0,1]", *drop)
	}
	if *dup < 0 || *dup > 1 {
		return fmt.Errorf("-dup %g: probability outside [0,1]", *dup)
	}
	if *jitter < 0 {
		return fmt.Errorf("-jitter %v: jitter cannot be negative", *jitter)
	}
	if *resync < 0 {
		return fmt.Errorf("-resync %g: timeout in rounds cannot be negative", *resync)
	}
	if *healAfter <= 0 {
		return fmt.Errorf("-heal-after %g: outage must last a positive number of rounds", *healAfter)
	}
	if *crash < -1 || *crash >= *n {
		return fmt.Errorf("-crash %d: switch outside [0,%d)", *crash, *n)
	}
	groups, err := parseGroups(*partSpec, *n)
	if err != nil {
		return err
	}
	outage := groups != nil || *crash >= 0
	lossy := *drop > 0 || *dup > 0 || *jitter > 0
	if (lossy || outage) && *modeName != "reliable" {
		return fmt.Errorf("-drop/-dup/-jitter/-partition/-crash inject transport faults, which only the reliable transport survives; add -mode reliable")
	}
	if *resync > 0 && !lossy && !outage {
		return fmt.Errorf("-resync %g: gap recovery only fires under loss; combine with -mode reliable and -drop/-dup/-jitter/-partition/-crash", *resync)
	}
	if outage && *resync <= 0 {
		return fmt.Errorf("-partition/-crash outages recover through gap resync; add -resync (e.g. -resync 4)")
	}
	var mode flood.Mode
	switch *modeName {
	case "direct":
		mode = flood.Direct
	case "hopbyhop":
		mode = flood.HopByHop
	case "tree":
		mode = flood.TreeBased
	case "reliable":
		mode = flood.Reliable
	default:
		return fmt.Errorf("unknown flooding mode %q", *modeName)
	}

	alg, err := route.ByName(*algName)
	if err != nil {
		return err
	}
	var kind mctree.Kind
	switch *kindName {
	case "symmetric":
		kind = mctree.Symmetric
	case "receiver-only":
		kind = mctree.ReceiverOnly
	case "asymmetric":
		kind = mctree.Asymmetric
	default:
		return fmt.Errorf("unknown MC kind %q", *kindName)
	}

	g, err := topo.Waxman(topo.DefaultGenConfig(*n, *seed))
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	// Outage windows are phrased in rounds, and a round needs the flooding
	// diameter — which needs the network, which needs the fault plan. Probe
	// Tf on a throwaway kernel to break the cycle, as the exp package does.
	var parts []faults.Partition
	if outage {
		ptf, err := probeTf(g, *perHop)
		if err != nil {
			return err
		}
		r := sim.Time(ptf + *tc)
		healSpan := sim.Time(*healAfter * float64(r))
		at := 10 * r
		if groups != nil {
			parts = append(parts, faults.Partition{Groups: groups, At: at, HealAt: at + healSpan})
			at += 2 * healSpan
		}
		if *crash >= 0 {
			// An undetected nodal outage is an isolation partition: the
			// victim's links stay up in the topology (nothing tells the
			// survivors to recompute), but no frame crosses until the heal.
			victim := topo.SwitchID(*crash)
			rest := make([]topo.SwitchID, 0, *n-1)
			for s := 0; s < *n; s++ {
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
	}
	var opts []flood.Option
	if lossy || len(parts) > 0 {
		inj, err := faults.New(k, faults.Plan{
			Seed:       *seed,
			Default:    faults.LinkFaults{Drop: *drop, Dup: *dup, Jitter: *jitter},
			Partitions: parts,
		})
		if err != nil {
			return err
		}
		opts = append(opts, flood.WithFaults(inj))
		if len(parts) > 0 {
			// A long outage would otherwise be masked by endless
			// retransmission; a tight budget makes the cut a real loss the
			// resync machinery has to repair.
			opts = append(opts, flood.WithRetryBudget(2))
		}
	}
	net, err := flood.New(k, g, *perHop, mode, opts...)
	if err != nil {
		return err
	}
	tf, err := net.FloodTime()
	if err != nil {
		return err
	}
	round := tf + *tc

	cfg := core.Config{
		Net:                 net,
		ComputeTime:         *tc,
		Algorithm:           alg,
		Kinds:               map[lsa.ConnID]mctree.Kind{1: kind},
		ReoptimizeThreshold: *reopt,
		ResyncTimeout:       sim.Time(*resync * float64(round)),
	}
	var tracers core.MultiTracer
	if *trace {
		tracers = append(tracers, &core.WriterTracer{W: w})
	}
	var spans *obs.SpanCollector
	if *traceOut != "" {
		spans = obs.NewSpanCollector(0)
		tracers = append(tracers, spans)
	}
	if len(tracers) > 0 {
		cfg.Tracer = tracers
	}
	d, err := core.NewDomain(k, cfg)
	if err != nil {
		return err
	}
	for _, pt := range parts {
		d.SchedulePartitionHeal(pt)
		fmt.Fprintf(w, "fault: %v, healing at t=%v\n", pt, pt.HealAt)
	}

	wcfg := workload.Config{N: *n, Events: *events, Seed: *seed, Start: round}
	var evs []workload.Event
	if *burst {
		wcfg.Window = round
		evs, err = workload.Bursty(wcfg)
	} else {
		wcfg.MeanGap = 20 * round
		evs, err = workload.Sparse(wcfg)
	}
	if err != nil {
		return err
	}
	if kind == mctree.Asymmetric {
		// Root the MC: make the first join the sender, the rest receivers.
		for i := range evs {
			if evs[i].Join {
				if i == 0 {
					evs[i].Role = mctree.Sender
				} else {
					evs[i].Role = mctree.Receiver
				}
			}
		}
	}
	fmt.Fprintf(w, "network: %d switches, %d links, Tf=%v, Tc=%v, round=%v\n",
		g.NumSwitches(), g.NumLinks(), tf, *tc, round)
	for _, e := range evs {
		verb := "leave"
		if e.Join {
			verb = "join"
			d.Join(e.At, e.Switch, 1, e.Role)
		} else {
			d.Leave(e.At, e.Switch, 1)
		}
		fmt.Fprintf(w, "event: t=%-12v switch %-3d %s\n", e.At, e.Switch, verb)
	}

	st := k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("simulation did not converge: %w", err)
	}

	if *failLink {
		if snap, ok := d.Switch(0).Connection(1); ok && snap.Topology != nil && snap.Topology.NumEdges() > 0 {
			edge := snap.Topology.Edges()[0]
			fmt.Fprintf(w, "\nfailing tree link (%d,%d)\n", edge.A, edge.B)
			d.FailLink(k.Now()+round, edge.A, edge.B)
			st = k.Run()
			repaired, _ := d.Switch(0).Connection(1)
			fmt.Fprintf(w, "repaired topology: %s\n", repaired.Topology)
		} else {
			fmt.Fprintln(w, "\nno tree edges to fail")
		}
	}

	m := d.Metrics()
	fmt.Fprintf(w, "\nconverged at t=%v (%d kernel events)\n", st.End, st.Events)
	fmt.Fprintf(w, "events: %d  computations: %d (%.2f/event)  floodings: %d (%.2f/event)  withdrawn: %d\n",
		m.Events, m.Computations, float64(m.Computations)/float64(m.Events),
		net.Floodings(), float64(net.Floodings())/float64(m.Events), m.Withdrawn)
	if mode == flood.Reliable {
		fmt.Fprintf(w, "transport: %s\n", net.Reliability())
		if m.ResyncRequests > 0 || m.OutOfOrderLSAs > 0 {
			fmt.Fprintf(w, "resync: requests=%d responses=%d out-of-order=%d give-ups=%d\n",
				m.ResyncRequests, m.ResyncResponses, m.OutOfOrderLSAs, m.ResyncGiveUps)
		}
		if outage {
			fmt.Fprintf(w, "heal: reconciles=%d replays=%d re-arms=%d\n",
				m.Reconciles, m.Replays, m.ResyncRearms)
		}
	}
	if snap, ok := d.Switch(0).Connection(1); ok {
		fmt.Fprintf(w, "members: %v\n", snap.Members.IDs())
		if snap.Topology != nil {
			fmt.Fprintf(w, "topology: %s (cost %v)\n", snap.Topology, snap.Topology.Cost(g))
		} else {
			fmt.Fprintln(w, "topology: none (empty membership)")
		}
	} else {
		fmt.Fprintln(w, "connection ended with no members")
	}
	if spans != nil {
		if err := writeSpans(*traceOut, spans); err != nil {
			return err
		}
		stats := spans.Stats()
		fmt.Fprintf(w, "spans: %d chains to %s (mean %.2f computations, %.2f floods, converge %v)\n",
			stats.Spans, *traceOut, stats.MeanComputations, stats.MeanFloods,
			time.Duration(stats.MeanConvergeNS))
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, m, net, st.Events); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: written to %s\n", *metricsOut)
	}
	return nil
}

// parseGroups parses a -partition spec like "0,1/2,3" into switch groups:
// groups are separated by '/', members by ','. Switches left out of every
// group are unconstrained by the split (faults.Partition semantics). An
// empty spec means no partition.
func parseGroups(spec string, n int) ([][]topo.SwitchID, error) {
	if spec == "" {
		return nil, nil
	}
	var groups [][]topo.SwitchID
	seen := map[topo.SwitchID]bool{}
	for _, gs := range strings.Split(spec, "/") {
		var grp []topo.SwitchID
		for _, field := range strings.Split(gs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				return nil, fmt.Errorf("-partition %q: bad switch %q", spec, field)
			}
			if v < 0 || v >= n {
				return nil, fmt.Errorf("-partition %q: switch %d outside [0,%d)", spec, v, n)
			}
			s := topo.SwitchID(v)
			if seen[s] {
				return nil, fmt.Errorf("-partition %q: switch %d listed twice", spec, v)
			}
			seen[s] = true
			grp = append(grp, s)
		}
		groups = append(groups, grp)
	}
	if len(groups) < 2 {
		return nil, fmt.Errorf("-partition %q: need at least two groups separated by '/'", spec)
	}
	return groups, nil
}

// probeTf computes the flooding diameter of g without building the real
// network, so outage windows phrased in rounds can be converted to virtual
// time before the fault plan is frozen.
func probeTf(g *topo.Graph, perHop time.Duration) (time.Duration, error) {
	k := sim.NewKernel()
	net, err := flood.New(k, g, perHop, flood.Direct)
	if err != nil {
		return 0, err
	}
	return net.FloodTime()
}

// writeSpans dumps the collected span trees as JSON.
func writeSpans(path string, spans *obs.SpanCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics exports the run's end-state counters — the domain metrics plus
// the fabric's flood accounting — in Prometheus text format, so a sim run and
// a live daemon scrape are comparable series for series.
func writeMetrics(path string, m *core.Metrics, net *flood.Network, kernelEvents uint64) error {
	reg := obs.NewRegistry()
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"dgmc_machine_events_total", float64(m.Events)},
		{"dgmc_machine_computations_total", float64(m.Computations)},
		{"dgmc_machine_withdrawn_total", float64(m.Withdrawn)},
		{"dgmc_machine_compute_seconds_total", float64(m.ComputeNanos) / 1e9},
		{"dgmc_machine_installs_total", float64(m.Installs)},
		{"dgmc_machine_mc_lsas_total", float64(m.MCLSAs)},
		{"dgmc_machine_non_mc_lsas_total", float64(m.NonMCLSAs)},
		{"dgmc_machine_reopt_checks_total", float64(m.ReoptChecks)},
		{"dgmc_machine_out_of_order_lsas_total", float64(m.OutOfOrderLSAs)},
		{"dgmc_machine_resync_requests_total", float64(m.ResyncRequests)},
		{"dgmc_machine_resync_responses_total", float64(m.ResyncResponses)},
		{"dgmc_machine_resync_giveups_total", float64(m.ResyncGiveUps)},
		{"dgmc_floods_originated_total", float64(net.Floodings())},
		{"dgmc_flood_copies_total", float64(net.Copies())},
		{"dgmc_kernel_events_total", float64(kernelEvents)},
	} {
		reg.CounterFunc(c.name, func() float64 { return c.v })
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command dgmcbench regenerates every table and figure of the paper's
// evaluation section:
//
//	dgmcbench -experiment 1          # Figure 6: bursty, computation dominates
//	dgmcbench -experiment 2          # Figure 7: bursty, communication dominates
//	dgmcbench -experiment 3          # Figure 8: normal traffic
//	dgmcbench -experiment baselines  # D-GMC vs MOSPF vs brute force
//	dgmcbench -experiment trees      # CBT vs Steiner tree quality
//	dgmcbench -experiment burst      # overheads vs burst size (fixed n)
//	dgmcbench -experiment hier       # flat vs hierarchical extension
//	dgmcbench -experiment loss       # convergence under injected loss
//	dgmcbench -experiment partition  # split/heal reconciliation cost
//	dgmcbench -experiment delivery   # live data-plane delivery ratio sweep
//	dgmcbench -experiment all        # every simulator experiment above
//
// The delivery sweep drives live goroutine clusters under wall-clock
// timing, so unlike the simulator experiments its figures vary slightly run
// to run; it is therefore opt-in rather than part of -experiment all, which
// stays byte-deterministic for a fixed -seed.
//
// Use -graphs and -sizes to trade fidelity for speed, and -csv for
// machine-readable output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/exp"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/metrics"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgmcbench:", err)
		os.Exit(1)
	}
}

// experimentNames is every name -experiment accepts.
var experimentNames = []string{"1", "2", "3", "baselines", "trees", "burst", "hier", "loss", "partition", "delivery", "all"}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgmcbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "comma-separated list of "+strings.Join(experimentNames, ", ")+" (delivery is live/timing-dependent and excluded from all)")
	graphs := fs.Int("graphs", 20, "random graphs per network size")
	sizes := fs.String("sizes", "20,40,60,80,100", "comma-separated network sizes")
	events := fs.Int("events", 10, "membership events per run")
	seed := fs.Int64("seed", 1, "base seed for the sweep")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	metricsOut := fs.String("metrics-out", "", "also export every emitted table as Prometheus gauges to this file")
	traceOut := fs.String("trace-out", "", "run one representative traced simulation and write its span trees (JSON) to this file")
	partition := fs.Int("partition", 2, "split/heal cycles per run in the partition experiment")
	healAfter := fs.Float64("heal-after", 20, "rounds each split (and nodal outage) stays open before healing (partition experiment)")
	crash := fs.Bool("crash", false, "add a nodal switch outage and recovery to every partition-experiment run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	if *partition < 1 {
		return fmt.Errorf("-partition %d: need at least one split/heal cycle", *partition)
	}
	if *healAfter <= 0 {
		return fmt.Errorf("-heal-after %g: splits must heal after a positive number of rounds", *healAfter)
	}
	override := func(p *exp.Params) {
		p.Sizes = sz
		p.GraphsPerSize = *graphs
		p.Events = *events
		p.BaseSeed = *seed
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	emit := func(t *metrics.Table) error {
		if t == nil {
			return nil
		}
		tableToGauges(reg, t)
		if *csv {
			if err := t.WriteCSV(w); err != nil {
				return err
			}
		} else if err := t.WriteText(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	emitFigures := func(f exp.FigureSet) error {
		if err := emit(f.Proposals); err != nil {
			return err
		}
		if err := emit(f.Floodings); err != nil {
			return err
		}
		return emit(f.Convergence)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		name := strings.TrimSpace(e)
		if !slices.Contains(experimentNames, name) {
			return fmt.Errorf("-experiment %q: unknown experiment (want any of %s)", name, strings.Join(experimentNames, ", "))
		}
		want[name] = true
	}
	all := want["all"]

	if all || want["1"] {
		f, err := exp.Experiment1(override)
		if err != nil {
			return err
		}
		if err := emitFigures(f); err != nil {
			return err
		}
	}
	if all || want["2"] {
		f, err := exp.Experiment2(override)
		if err != nil {
			return err
		}
		if err := emitFigures(f); err != nil {
			return err
		}
	}
	if all || want["3"] {
		f, err := exp.Experiment3(override)
		if err != nil {
			return err
		}
		if err := emitFigures(f); err != nil {
			return err
		}
	}
	if all || want["baselines"] {
		t, err := exp.Baselines(exp.DefaultBaselineParams(), override)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if all || want["trees"] {
		t, err := exp.TreeQuality(exp.TreeQualityParams{
			Sizes:         sz,
			GraphsPerSize: *graphs,
			BaseSeed:      *seed,
		})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if all || want["burst"] {
		t, err := exp.BurstScaling(exp.BurstScalingParams{BaseSeed: *seed, RunsPerPoint: *graphs})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if all || want["hier"] {
		t, err := exp.Hierarchy(exp.HierarchyParams{BaseSeed: *seed, RunsPerPoint: *graphs / 2})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if all || want["loss"] {
		t, err := exp.Loss(exp.LossParams{BaseSeed: *seed, RunsPerPoint: *graphs / 2, Events: *events})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if all || want["partition"] {
		t, err := exp.Partition(exp.PartitionParams{
			Sizes:           sz,
			Cycles:          *partition,
			HealAfterRounds: *healAfter,
			Crash:           *crash,
			RunsPerPoint:    *graphs / 2,
			BaseSeed:        *seed,
			Events:          *events,
		})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	// Opt-in only: live clusters under wall-clock timing, so the table is
	// not byte-deterministic and would break -experiment all's guarantee.
	if want["delivery"] {
		runs := *graphs / 4
		if runs < 1 {
			runs = 1
		}
		t, err := exp.Delivery(exp.DeliveryParams{
			RunsPerPoint: runs,
			BaseSeed:     *seed,
		})
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if reg != nil {
		if err := writeFile(*metricsOut, reg.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		spans, err := tracedRun(*seed)
		if err != nil {
			return err
		}
		if err := writeFile(*traceOut, spans.WriteJSON); err != nil {
			return err
		}
		st := spans.Stats()
		fmt.Fprintf(w, "spans: %d chains to %s (mean %.2f computations, %.2f floods)\n",
			st.Spans, *traceOut, st.MeanComputations, st.MeanFloods)
	}
	return nil
}

// tableToGauges exports a result table as gauge series: one series per
// (column, statistic) pair labeled with the row's x value, so a scrape of a
// bench run and a live daemon share one data model. No-op without a registry.
func tableToGauges(reg *obs.Registry, t *metrics.Table) {
	if reg == nil {
		return
	}
	base := "dgmc_bench_" + slug(t.Title)
	for _, row := range t.Rows {
		x := obs.L(slug(t.XLabel), fmt.Sprintf("%g", row.X))
		for i, cell := range row.Cells {
			if i >= len(t.Columns) {
				break
			}
			col := slug(t.Columns[i])
			mean, ci := cell.Mean, cell.CI
			reg.GaugeFunc(base+"_"+col+"_mean", func() float64 { return mean }, x)
			reg.GaugeFunc(base+"_"+col+"_ci95", func() float64 { return ci }, x)
		}
	}
}

// slug lowercases and collapses a table title or column name into a metric
// name fragment.
func slug(s string) string {
	var b strings.Builder
	lastUnder := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnder = false
		default:
			if !lastUnder {
				b.WriteByte('_')
				lastUnder = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}

// tracedRun executes one representative bursty simulation (20 switches,
// 8 events) with a span collector attached and returns the collected spans.
func tracedRun(seed int64) (*obs.SpanCollector, error) {
	g, err := topo.Waxman(topo.DefaultGenConfig(20, seed))
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 10*time.Microsecond, flood.HopByHop)
	if err != nil {
		return nil, err
	}
	tf, err := net.FloodTime()
	if err != nil {
		return nil, err
	}
	round := tf + 500*time.Microsecond
	spans := obs.NewSpanCollector(0)
	d, err := core.NewDomain(k, core.Config{
		Net:         net,
		ComputeTime: 500 * time.Microsecond,
		Algorithm:   route.SPH{},
		Kinds:       map[lsa.ConnID]mctree.Kind{1: mctree.Symmetric},
		Tracer:      spans,
	})
	if err != nil {
		return nil, err
	}
	evs, err := workload.Bursty(workload.Config{
		N: 20, Events: 8, Seed: seed, Start: round, Window: round,
	})
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		if e.Join {
			d.Join(e.At, e.Switch, 1, e.Role)
		} else {
			d.Leave(e.At, e.Switch, 1)
		}
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return nil, fmt.Errorf("traced run did not converge: %w", err)
	}
	return spans, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// Command bench is the repository's benchmark: four workloads on a live
// 16-switch cluster, five end-to-end metrics, and a per-layer ledger from a
// separate traced run. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process; without it, run all four, each in a process of its own")
		seed      = flag.Int64("seed", 1, "draws the layout's placement, the churn order and the payload bytes")
		seconds   = flag.Int("seconds", 20, "length of every main window")
		trace     = flag.Int("trace", 0, "1: traced run — harness spans on, per-layer metrics instead of end-to-end ones")
		quick     = flag.Bool("quick", false, "smoke mode: 0.3 s windows, 500 events")
		out       = flag.String("out", "", "one workload, traced: write the spans here; all workloads: write the results here")
		runs      = flag.Int("runs", 1, "all workloads: repeat the suite this many times (seeds seed, seed+1, …)")
		diff      = flag.Bool("diff", false, "compare two result files: bench -diff old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite as two interleaved sets and compare them against the bounds")
		manifest  = flag.String("manifest", "BENCHMARK.json", "where the bounds are read from (-diff, -selfcheck)")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(2, "-seconds must be at least 1")
	}

	switch {
	case *diff:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -diff old.json new.json")
		}
		os.Exit(diffFiles(*manifest, flag.Arg(0), flag.Arg(1), os.Stdout))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		cfg := fullConfig(*seconds)
		if *quick {
			cfg = quickConfig()
		}
		cfg.seed, cfg.trace = *seed, *trace != 0
		os.Exit(single(w, cfg, *out, os.Stdout))
	}

	s := suite{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, runs: *runs}
	if *selfcheck {
		os.Exit(s.selfcheck(*manifest, *out))
	}
	doc, err := s.run(os.Stdout, *out)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *out != "" {
		if err := doc.write(*out); err != nil {
			fatal(1, "%v", err)
		}
	}
	if !doc.correct() {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// single runs one workload in this process and ends standard output with the
// acceptance driver's one-line JSON object. A failed audit exits non-zero.
func single(w workload, cfg config, spansPath string, out io.Writer) int {
	res, err := runWorkload(w, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(out)
	if cfg.trace && spansPath != "" {
		if err := writeSpans(spansPath, w.name, cfg.seed, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	report, contract, err := res.lines()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n%s\n", report, contract)
	if !res.Correct {
		return 1
	}
	return 0
}

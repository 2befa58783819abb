package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// endToEndMetrics are the five metrics every untraced run reports, in the
// order they are printed.
var endToEndMetrics = []string{
	"setup_s", "data_pkts_per_s", "ctl_install_p50_us", "mem_retained_mb", "mem_peak_rss_mb",
}

// unitOf derives a metric's unit from its name, so the name is the only place
// a unit is written down.
func unitOf(name string) string {
	has := func(sub string) bool { return strings.Contains(name, sub) }
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_mbps"):
		return "MB/s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case has("_us"):
		return "us"
	case has("_ns"):
		return "ns"
	case has("_bytes_"):
		return "B"
	case has("_util"), has("_over_"):
		return "ratio"
	}
	return "count"
}

func (h host) String() string {
	s := fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, %s, %s, commit %s, host.calib_crc_mbps %.0f",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.CPUModel, h.Commit, h.CalibMBps)
	if !h.Comparable {
		s += fmt.Sprintf("\nWARNING: nproc %d < GOMAXPROCS %d — figures from this host are not comparable", h.NProc, h.GoMaxProcs)
	}
	return s
}

// print writes the human-readable report of one run.
func (r *result) print(out io.Writer) {
	names := endToEndMetrics
	if r.Traced {
		names = nil
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	w, _ := findWorkload(r.Workload)
	for _, name := range names {
		probe := ""
		if !r.Traced && !w.owns(name) {
			probe = "  (probe)"
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s%s\n", name, r.Metrics[name], unitOf(name), probe)
	}
	var notes []string
	for name := range r.Notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		fmt.Fprintf(out, "  note %-27s %14.4f\n", name, r.Notes[name])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  AUDIT FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "  operations: %d attempted, %d failed; wall time %.1f s\n", r.Attempted, r.Failed, r.WallS)
}

// contractLine is the last line of a single-workload run's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lines renders the run's two machine-readable lines: the full report (what
// the suite runner collects) and, last, the acceptance driver's object.
func (r *result) lines() (report, contract string, err error) {
	full, err := json.Marshal(r)
	if err != nil {
		return "", "", err
	}
	c := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
	for name, v := range r.Metrics {
		c.Metrics[name] = contractValue{Value: v, Unit: unitOf(name)}
	}
	last, err := json.Marshal(c)
	if err != nil {
		return "", "", err
	}
	return "report " + string(full), string(last), nil
}

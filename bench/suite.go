package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// suite runs all four workloads, each in an operating-system process of its
// own, so heap state, GC pacing and peak RSS never leak from one workload
// into the next.
type suite struct {
	seed    int64
	seconds int
	trace   bool
	quick   bool
	runs    int
}

// resultDoc is the file -out writes and -diff reads: every run's value of
// every metric, per workload.
type resultDoc struct {
	Host      host                     `json:"host"`
	Seconds   int                      `json:"seconds"`
	Quick     bool                     `json:"quick"`
	Traced    bool                     `json:"traced"`
	Seeds     []int64                  `json:"seeds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Metrics   map[string][]float64 `json:"metrics"` // one value per run
	Notes     map[string][]float64 `json:"notes"`   // generator lateness, slice spread, …
	WallS     []float64            `json:"wall_s"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
}

func (d *resultDoc) add(r *result) {
	if d.Workloads == nil {
		d.Workloads = map[string]*workloadRuns{}
	}
	w := d.Workloads[r.Workload]
	if w == nil {
		w = &workloadRuns{Metrics: map[string][]float64{}, Notes: map[string][]float64{}}
		d.Workloads[r.Workload] = w
	}
	for k, v := range r.Metrics {
		w.Metrics[k] = append(w.Metrics[k], v)
	}
	for k, v := range r.Notes {
		w.Notes[k] = append(w.Notes[k], v)
	}
	w.WallS = append(w.WallS, r.WallS)
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Failures = append(w.Failures, r.Failures...)
	d.Host = r.Host
}

func (d *resultDoc) correct() bool {
	for _, w := range d.Workloads {
		if w.Failed > 0 || len(w.Failures) > 0 {
			return false
		}
	}
	return true
}

func (d *resultDoc) write(path string) error {
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readDoc(path string) (*resultDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (s suite) newDoc() *resultDoc {
	return &resultDoc{Seconds: s.seconds, Quick: s.quick, Traced: s.trace}
}

// child runs one workload in a fresh process (this same binary) and returns
// its report. The child's human-readable lines are copied to out.
func (s suite) child(w workload, seed int64, spansPath string, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(s.seconds)}
	if s.trace {
		args = append(args, "-trace", "1")
		if spansPath != "" {
			args = append(args, "-out", spansPath)
		}
	}
	if s.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output() // waits for the child to end
	var res *result
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		switch {
		case bytes.HasPrefix(line, []byte("report ")):
			res = new(result)
			if err := json.Unmarshal(line[len("report "):], res); err != nil {
				return nil, fmt.Errorf("%s: unreadable report: %w", w.name, err)
			}
		case len(line) > 0 && line[0] != '{':
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no report (%v)", w.name, runErr)
	}
	return res, nil
}

// run executes the suite s.runs times and collects every run.
func (s suite) run(out io.Writer, outPath string) (*resultDoc, error) {
	doc := s.newDoc()
	for r := 0; r < s.runs; r++ {
		seed := s.seed + int64(r)
		doc.Seeds = append(doc.Seeds, seed)
		if err := s.once(doc, seed, outPath, out); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// once runs the four workloads with one seed into doc.
func (s suite) once(doc *resultDoc, seed int64, outPath string, out io.Writer) error {
	for _, w := range workloads {
		spans := ""
		if s.trace && outPath != "" {
			spans = fmt.Sprintf("%s.%s.spans.json", strings.TrimSuffix(outPath, ".json"), w.name)
		}
		res, err := s.child(w, seed, spans, out)
		if err != nil {
			return err
		}
		doc.add(res)
	}
	return nil
}

// metricSpec and manifest mirror the parts of BENCHMARK.json the comparisons
// need.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// tally counts the verdicts of one comparison.
type tally map[string]int

// compare prints base against cur, workload × end-to-end metric, judged
// against the manifest's bounds; for traced files, the per-layer metrics'
// change without a verdict. Only the metrics a workload is about are judged:
// its probe's readings are printed beside them and left out of the tally. A
// pair missing from either file counts as worse: a gate must not pass on what
// it could not see.
func compare(m *manifest, base, cur *resultDoc, out io.Writer) tally {
	t := tally{}
	row := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%12.4g [%.4g, %.4g]", q2, q1, q3)
	}
	fmt.Fprintf(out, "%-13s %-22s %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "current median [q1, q3]", "worse by", "bound", "verdict")
	for _, w := range m.Workloads {
		bw, cw := base.Workloads[w.Name], cur.Workloads[w.Name]
		specs := m.EndToEnd
		if base.Traced && cur.Traced {
			specs = m.PerLayer
		}
		for _, spec := range specs {
			var bv, cv []float64
			if bw != nil && cw != nil {
				bv, cv = bw.Metrics[spec.Name], cw.Metrics[spec.Name]
			}
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(out, "%-13s %-22s absent from one of the files\n", w.Name, spec.Name)
				t[verdictWorse]++
				continue
			}
			if spec.Bound == 0 { // per-layer: no bound, no verdict
				fmt.Fprintf(out, "%-13s %-22s %-38s %-38s %+7.1f%%\n", w.Name, spec.Name, row(bv), row(cv),
					100*worsening(median(bv), median(cv), spec.Better))
				continue
			}
			if !judged(w.Name, spec.Name) {
				fmt.Fprintf(out, "%-13s %-22s %-38s %-38s %+7.1f%% %5.0f%%  (probe)\n", w.Name, spec.Name, row(bv), row(cv),
					100*worsening(median(bv), median(cv), spec.Better), 100*spec.Bound)
				continue
			}
			verdict, worse := judge(bv, cv, spec.Better, spec.Bound)
			t[verdict]++
			fmt.Fprintf(out, "%-13s %-22s %-38s %-38s %+7.1f%% %5.0f%%  %s\n",
				w.Name, spec.Name, row(bv), row(cv), 100*worse, 100*spec.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "better %d, within %d, worse %d, unresolved %d\n",
		t[verdictBetter], t[verdictWithin], t[verdictWorse], t[verdictUnresolved])
	return t
}

// judged reports whether the gate passes a verdict on this pair: it does
// unless the metric is a probe's reading on one of this harness's workloads.
func judged(workloadName, metric string) bool {
	w, known := findWorkload(workloadName)
	return !known || w.owns(metric)
}

// diffFiles is -diff: the regression gate. It exits non-zero on any worse.
func diffFiles(manifestPath, basePath, curPath string, out io.Writer) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := readDoc(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readDoc(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if base.Host.CPUModel != cur.Host.CPUModel || base.Host.NProc != cur.Host.NProc ||
		math.Abs(base.Host.CalibMBps-cur.Host.CalibMBps) > 0.15*base.Host.CalibMBps {
		fmt.Fprintf(out, "WARNING: the two files come from different hosts:\n  %s\n  %s\n", base.Host, cur.Host)
	}
	if compare(m, base, cur, out)[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// selfcheck runs the same code as two interleaved sets (A B A B …, at least
// three runs each) and compares B against A: on an unchanged tree the two
// medians of every workload × metric must lie within the bound of each other.
// If they do not, the benchmark moved, not the program — the metric's window
// is too short or its bound too tight.
func (s suite) selfcheck(manifestPath, outPath string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if s.runs < 3 {
		s.runs = 3
	}
	a, b := s.newDoc(), s.newDoc()
	for r := 0; r < s.runs; r++ {
		seed := s.seed + int64(r)
		for _, doc := range []*resultDoc{a, b} {
			doc.Seeds = append(doc.Seeds, seed)
			if err := s.once(doc, seed, "", io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Printf("selfcheck: pair %d of %d done\n", r+1, s.runs)
	}
	if outPath != "" {
		for suffix, doc := range map[string]*resultDoc{".A.json": a, ".B.json": b} {
			if err := doc.write(strings.TrimSuffix(outPath, ".json") + suffix); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	fmt.Printf("%s\nset A (base) against set B (current), %d runs each, -seconds %d\n", a.Host, s.runs, s.seconds)
	compare(m, a, b, os.Stdout)
	// The verdict goes by the medians alone: with three runs a set's
	// quartiles are its extremes, so "unresolved" is the common case here and
	// says how wide the host's mood swings are, not that the sets disagree.
	var apart []string
	for _, w := range m.Workloads {
		for _, spec := range m.EndToEnd {
			if !judged(w.Name, spec.Name) {
				continue
			}
			av, bv := a.Workloads[w.Name].Metrics[spec.Name], b.Workloads[w.Name].Metrics[spec.Name]
			if d := worsening(median(av), median(bv), spec.Better); math.Abs(d) > spec.Bound {
				apart = append(apart, fmt.Sprintf("%s %s: the sets' medians are %.1f%% apart, bound %.0f%%",
					w.Name, spec.Name, 100*math.Abs(d), 100*spec.Bound))
			}
		}
	}
	for _, line := range apart {
		fmt.Println(line)
	}
	if !a.correct() || !b.correct() {
		fmt.Println("selfcheck: an audit failed")
		return 1
	}
	if len(apart) > 0 {
		return 1
	}
	fmt.Println("selfcheck: every judged pair of medians is within its bound")
	return 0
}

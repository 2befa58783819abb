package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// None of these tests asserts a timing value: they check arithmetic, names,
// determinism and the audit, so they hold on any host and under `go test
// ./...`'s package-level parallelism.

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v, computed with CPython 3.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 5, 5}, 5, 5, 5},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSliceMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestBoundArithmetic(t *testing.T) {
	if got := worsening(100, 112, "lower"); got != 0.12 {
		t.Errorf("lower-is-better worsening = %v", got)
	}
	if got := worsening(100, 88, "higher"); got != 0.12 {
		t.Errorf("higher-is-better worsening = %v", got)
	}
	tight := func(center float64) []float64 { return []float64{center * 0.99, center, center * 1.01} }
	wide := []float64{70, 100, 130}
	cases := []struct {
		name      string
		base, cur []float64
		better    string
		want      string
	}{
		{"slower latency", tight(100), tight(115), "lower", verdictWorse},
		{"faster latency", tight(100), tight(85), "lower", verdictBetter},
		{"same", tight(100), tight(104), "lower", verdictWithin},
		{"less throughput", tight(100), tight(85), "higher", verdictWorse},
		{"more throughput", tight(100), tight(115), "higher", verdictBetter},
		{"spread wider than the bound", wide, tight(100), "lower", verdictUnresolved},
		{"wide, but every run better", wide, tight(50), "lower", verdictBetter},
	}
	for _, c := range cases {
		if got, _ := judge(c.base, c.cur, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameSeedSameDraw(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a, b := newDraw(seed), newDraw(seed)
		if !reflect.DeepEqual(a, b) || !bytes.Equal(a.payload, b.payload) {
			t.Fatalf("seed %d drew differently twice:\n%v\n%v", seed, a, b)
		}
		taken := map[int]bool{}
		for _, s := range a.Members {
			taken[int(s)] = true
		}
		for _, s := range a.Base {
			taken[int(s)] = true
		}
		for _, s := range a.Churners {
			if taken[int(s)] {
				t.Fatalf("seed %d: churner %d is a permanent member", seed, s)
			}
		}
		if len(a.Members) != groupSize || len(a.Base) != groupSize || len(a.Churners) != groupSize {
			t.Fatalf("seed %d: wrong group sizes in %v", seed, a)
		}
	}
	if a, b := newDraw(1), newDraw(2); bytes.Equal(a.payload, b.payload) {
		t.Error("seeds 1 and 2 drew the same payload")
	}
	ks := usableSymmetries()
	if len(ks) < 2 || ks[0] != 0 {
		t.Errorf("usable symmetries %v: want the identity and at least one more", ks)
	}
}

// testConfig is the smoke configuration with an install time-out no loaded
// CI host can trip.
func testConfig() config {
	cfg := quickConfig()
	cfg.seed = 3
	cfg.installTimeout = 30 * time.Second
	return cfg
}

func loadManifest(t *testing.T) (*manifest, map[string]any) {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	m, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	return m, raw
}

func names(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r *result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestManifestMatchesQuickRun(t *testing.T) {
	m, raw := loadManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	if !reflect.DeepEqual(raw["paths"], []any{"bench"}) {
		t.Errorf("paths = %v, want [bench]", raw["paths"])
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the harness runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest says %q (%q), harness %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	seen := map[string]bool{}
	var hasSetup bool
	for _, spec := range append(append([]metricSpec{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(spec.Name) || !unitRE.MatchString(spec.Unit) {
			t.Errorf("metric %q (unit %q): name or unit outside the allowed characters", spec.Name, spec.Unit)
		}
		if seen[spec.Name] {
			t.Errorf("metric %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Unit != unitOf(spec.Name) {
			t.Errorf("metric %q: manifest unit %q, harness prints %q", spec.Name, spec.Unit, unitOf(spec.Name))
		}
		if spec.Better != "lower" && spec.Better != "higher" {
			t.Errorf("metric %q: better = %q", spec.Name, spec.Better)
		}
	}
	for _, spec := range m.EndToEnd {
		if spec.Bound <= 0 || spec.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", spec.Name, spec.Bound)
		}
		if spec.Name == "setup_s" {
			hasSetup = spec.Unit == "s" && spec.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if !reflect.DeepEqual(names(m.EndToEnd), func() []string { s := append([]string{}, endToEndMetrics...); sort.Strings(s); return s }()) {
		t.Errorf("manifest end-to-end metrics %v, harness %v", names(m.EndToEnd), endToEndMetrics)
	}

	// Every workload's untraced smoke run emits exactly the end-to-end
	// metrics, none of them zero, and passes its audit.
	for _, w := range workloads {
		res, err := runWorkload(w, testConfig(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		if got := emitted(res); !reflect.DeepEqual(got, names(m.EndToEnd)) {
			t.Errorf("%s emits %v, manifest lists %v", w.name, got, names(m.EndToEnd))
		}
		for _, own := range w.own {
			if _, ok := res.Metrics[own]; !ok {
				t.Errorf("%s is said to be about %s, which it does not emit", w.name, own)
			}
		}
		for name, v := range res.Metrics {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.name, name, v)
			}
		}
	}

	// One traced smoke run emits exactly the per-layer metrics (the set is
	// the same for every workload) and records spans.
	cfg := testConfig()
	cfg.trace = true
	w, _ := findWorkload("churn-loaded")
	res, err := runWorkload(w, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its audit: %v", res.Failures)
	}
	if got := emitted(res); !reflect.DeepEqual(got, names(m.PerLayer)) {
		t.Errorf("traced run emits\n%v\nmanifest lists\n%v", got, names(m.PerLayer))
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, w.name, cfg.seed, res.spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc spanDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, log := range []string{"data", "ctl"} {
		if len(doc.Logs[log]) == 0 {
			t.Errorf("span file has no %q spans", log)
		}
		for i, sp := range doc.Logs[log] {
			if sp.EndNS < sp.StartNS || sp.Parent >= i {
				t.Fatalf("%s span %d malformed: %+v", log, i, sp)
			}
		}
	}
}

func TestLossIsCountedAndFailsTheAudit(t *testing.T) {
	cfg := testConfig()
	cfg.tamper = func(b *bed) { b.fab.SetLoss(0.02, 7) }
	w, _ := findWorkload("fanout64")

	done := make(chan int, 1)
	var out bytes.Buffer
	go func() { done <- single(w, cfg, "", &out) }()
	var code int
	select {
	case code = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the driver hung on a lossy fabric")
	}
	if code == 0 {
		t.Error("exit code 0 although packets were lost")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed == 0 || last.Failed > last.Attempted {
		t.Errorf("correct %v, failed %d of %d: want an incorrect run with the shortfall counted", last.Correct, last.Failed, last.Attempted)
	}
	if !strings.Contains(out.String(), "packets lost") {
		t.Error("the report does not name the lost packets")
	}
}

// A source that may no longer send has its batches refused, so every burst
// falls short by more deliveries than it had packets. The shortfall charged
// must stay within what was sent: the packet counts may not wrap around.
func TestRefusedSendsAreCountedWithoutWrapping(t *testing.T) {
	cfg := testConfig()
	cfg.tamper = func(b *bed) {
		if err := b.c.Leave(b.d.Members[0], dataConn); err != nil {
			t.Error(err)
		}
		if err := b.c.WaitConverged(30 * time.Second); err != nil {
			t.Error(err)
		}
	}
	w, _ := findWorkload("fanout64")
	res, err := runWorkload(w, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Errorf("correct %v, failed %d of %d: want an incorrect run with the refusals counted", res.Correct, res.Failed, res.Attempted)
	}
	if rate := res.Metrics["data_pkts_per_s"]; rate < 0 || rate > 1e9 {
		t.Errorf("data_pkts_per_s = %v: the packet count wrapped around", rate)
	}
}

// A delivery that arrives after its burst was given up on must not count
// towards the next burst's target.
func TestStragglersDoNotCompleteALaterBurst(t *testing.T) {
	d := newDraw(1)
	s := newSink(d.Members, d.payload[:smallPayload])
	at, src := d.Members[0], d.Members[1]
	s.lanes[at].target.Store(2)
	s.pending.Store(1)
	s.floor[src].Store(100) // the burst that ended at sequence number 99 was given up on
	s.handle(at, dataConn, src, 99, s.payload)
	s.handle(at, dataConn, src, 100, s.payload)
	if got := s.pending.Load(); got != 1 {
		t.Fatalf("a straggler and one fresh delivery left %d lanes pending, want 1", got)
	}
	s.handle(at, dataConn, src, 101, s.payload)
	if got := s.pending.Load(); got != 0 {
		t.Fatalf("two fresh deliveries left %d lanes pending, want 0", got)
	}
	if got := s.delivered(); got != 3 {
		t.Errorf("delivered() = %d, want all 3 (the audit compares it with the switches' count)", got)
	}
}

func TestDiffGate(t *testing.T) {
	m := &manifest{EndToEnd: []metricSpec{
		{Name: "data_pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "ctl_install_p50_us", Unit: "us", Better: "lower", Bound: 0.1},
	}}
	m.Workloads = append(m.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	doc := func(rate, lat float64) *resultDoc {
		d := &resultDoc{}
		for _, k := range []float64{0.99, 1, 1.01} {
			d.add(&result{Workload: "w", Metrics: map[string]float64{"data_pkts_per_s": rate * k, "ctl_install_p50_us": lat * k}})
		}
		return d
	}
	if got := compare(m, doc(1000, 80), doc(1020, 79), io.Discard); got[verdictWithin] != 2 {
		t.Errorf("unchanged: %v", got)
	}
	if got := compare(m, doc(1000, 80), doc(800, 60), io.Discard); got[verdictWorse] != 1 || got[verdictBetter] != 1 {
		t.Errorf("one worse, one better: %v", got)
	}
	missing := doc(1000, 80)
	delete(missing.Workloads["w"].Metrics, "ctl_install_p50_us")
	if got := compare(m, doc(1000, 80), missing, io.Discard); got[verdictWorse] != 1 {
		t.Errorf("a metric absent from one file must count as worse: %v", got)
	}

	// A probe's reading on one of the harness's own workloads is printed but
	// not judged: churn is not about data_pkts_per_s.
	m.Workloads[0].Name = "churn"
	probe := func(rate, lat float64) *resultDoc {
		d := doc(rate, lat)
		d.Workloads["churn"] = d.Workloads["w"]
		return d
	}
	if got := compare(m, probe(1000, 80), probe(500, 80), io.Discard); got[verdictWorse] != 0 || got[verdictWithin] != 1 {
		t.Errorf("a probe pair was judged: %v", got)
	}
	m.Workloads[0].Name = "w"

	// Through files, as the command line does.
	dir := t.TempDir()
	mpath, old, cur := filepath.Join(dir, "m.json"), filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	buf, _ := json.Marshal(m)
	if err := os.WriteFile(mpath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := doc(1000, 80).write(old); err != nil {
		t.Fatal(err)
	}
	if err := doc(700, 80).write(cur); err != nil {
		t.Fatal(err)
	}
	worse, same := diffFiles(mpath, old, cur, io.Discard), diffFiles(mpath, old, old, io.Discard)
	if worse != 1 || same != 0 {
		t.Errorf("diff exit codes: regression %d (want 1), identical %d (want 0)", worse, same)
	}
}

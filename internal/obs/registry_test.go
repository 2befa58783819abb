package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	h := r.Histogram("z", DurationBuckets)
	h.Observe(0.5)
	r.CounterFunc("f", func() float64 { return 1 })
	r.GaugeFunc("f2", func() float64 { return 2 })
	if h != nil || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("a nil registry must hand out a nil histogram that reads zero")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q", sb.String())
	}
}

func TestRegistryIdempotentAndCounts(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("reqs", func() float64 { return 3 }, L("sw", "1"))
	r.CounterFunc("reqs", func() float64 { return 99 }, L("sw", "1"))
	r.CounterFunc("reqs", func() float64 { return 1 }, L("sw", "2"))
	r.GaugeFunc("depth", func() float64 { return 7 })
	byKey := map[string]float64{}
	for _, p := range r.Snapshot() {
		key := p.Name
		for _, l := range p.Labels {
			key += " " + l.Key + "=" + l.Value
		}
		byKey[key] = p.Value
	}
	if len(byKey) != 3 {
		t.Fatalf("want 3 series (same name and labels is one series), got %v", byKey)
	}
	if byKey["reqs sw=1"] != 3 || byKey["reqs sw=2"] != 1 {
		t.Fatalf("the first closure per series must be kept: %v", byKey)
	}
	if byKey["depth"] != 7 {
		t.Fatalf("gauge = %v, want 7", byKey["depth"])
	}

	h := r.Histogram("lat", []float64{0.1, 1, 10})
	if r.Histogram("lat", nil) != h {
		t.Fatal("same (name, labels) must return the same histogram")
	}
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if got := h.Sum(); math.Abs(got-55.55) > 1e-9 {
		t.Fatalf("hist sum = %v, want 55.55", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	r.CounterFunc("c", func() float64 { return float64(c.Load()) })
	r.GaugeFunc("g", func() float64 { return 5 })
	h := r.Histogram("h", []float64{1, 2})
	c.Add(10)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(snap))
	}
	byName := map[string]Point{}
	for _, p := range snap {
		byName[p.Name] = p
	}
	if byName["c"].Value != 10 || byName["c"].Kind != KindCounter || byName["g"].Value != 5 || byName["g"].Kind != KindGauge {
		t.Fatalf("unexpected values: %+v", byName)
	}
	hp := byName["h"]
	if hp.Count != 3 || len(hp.Buckets) != 3 {
		t.Fatalf("hist point = %+v", hp)
	}
	// Buckets are cumulative: ≤1 holds 1, ≤2 holds 2, +Inf holds 3.
	if hp.Buckets[0].Count != 1 || hp.Buckets[1].Count != 2 || hp.Buckets[2].Count != 3 {
		t.Fatalf("cumulative buckets = %+v", hp.Buckets)
	}
	if !math.IsInf(hp.Buckets[2].Le, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", hp.Buckets[2].Le)
	}
	// A scrape reads the count where it lives.
	c.Add(7)
	for _, p := range r.Snapshot() {
		if p.Name == "c" && p.Value != 17 {
			t.Fatalf("counter func read %v after the count moved, want 17", p.Value)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var shared atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.CounterFunc("shared", func() float64 { return float64(shared.Load()) })
			h := r.Histogram("hist", []float64{0.5})
			for j := 0; j < 1000; j++ {
				shared.Add(1)
				h.Observe(float64(j%2) * 0.9)
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2: %+v", len(snap), snap)
	}
	for _, p := range snap {
		if p.Name == "shared" && p.Value != 8000 {
			t.Fatalf("counter = %v, want 8000", p.Value)
		}
	}
	if got := r.Histogram("hist", nil).Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dgmc_floods_total", func() float64 { return 2 }, L("switch", "3"))
	r.GaugeFunc("dgmc_depth", func() float64 { return 4 })
	h := r.Histogram("dgmc_lat_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dgmc_floods_total counter",
		`dgmc_floods_total{switch="3"} 2`,
		"# TYPE dgmc_depth gauge",
		"dgmc_depth 4",
		"# TYPE dgmc_lat_seconds histogram",
		`dgmc_lat_seconds_bucket{le="0.5"} 1`,
		`dgmc_lat_seconds_bucket{le="1"} 1`,
		`dgmc_lat_seconds_bucket{le="+Inf"} 2`,
		"dgmc_lat_seconds_sum 2.25",
		"dgmc_lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusSanitization(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("bad name-1", func() float64 { return 1 }, L("bad key", "line\nbreak \"quoted\" back\\slash"))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `bad_name_1{bad_key="line\nbreak \"quoted\" back\\slash"} 1`) {
		t.Fatalf("sanitization wrong:\n%s", out)
	}
}

// BenchmarkHistogramEnabled measures one observation (search + 3 atomics).
func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewRegistry().Histogram("x", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "switch", Value: "3"}.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String implements fmt.Stringer (Prometheus type names).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// atomicFloat is a float64 updated by CAS, for histogram sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram distributes observations over fixed upper-bound buckets (an
// implicit +Inf bucket catches the rest). The nil *Histogram a nil Registry
// hands out discards every observation and reads zero.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; counts[i] ≤ bounds[i], last = +Inf
	sum    atomicFloat
	n      atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// DurationBuckets spans 10µs–10s in decade-and-a-half steps, suitable for
// protocol handling latencies in seconds.
var DurationBuckets = []float64{
	10e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3, 1, 5, 10,
}

// instrument is one registered metric series.
type instrument struct {
	name   string
	labels []Label
	kind   Kind

	hist *Histogram
	fn   func() float64 // scrape-time callback (counter or gauge semantics)
}

// Registry holds a process's instruments: scrape-time callbacks over
// counts their owners keep (CounterFunc, GaugeFunc) and histograms, the one
// instrument a scrape cannot read back from a count. The zero registry is
// not usable; call NewRegistry. A nil *Registry is the disabled fast path:
// Histogram returns nil and every callback registration is dropped.
//
// Registration is idempotent: the first instrument registered for a
// (name, labels) is the one kept, so a caller registers a series once and
// caches the histograms it observes.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	order []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// seriesKey is the canonical identity of a series: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return append([]Label(nil), labels...)
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register returns the existing instrument for (name, labels) or inserts
// the one built by mk. Must be called with r non-nil.
func (r *Registry) register(name string, labels []Label, kind Kind, mk func() *instrument) *instrument {
	labels = sortedLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		return in
	}
	in := mk()
	in.name = name
	in.labels = labels
	in.kind = kind
	r.byKey[key] = in
	r.order = append(r.order, in)
	return in
}

// Histogram returns (registering on first use) the histogram for
// (name, labels) with the given ascending upper bounds. Bounds are fixed at
// first registration; later calls with different bounds get the original.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	in := r.register(name, labels, KindHistogram, func() *instrument {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &instrument{hist: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}}
	})
	return in.hist
}

// CounterFunc registers a scrape-time callback exported with counter
// semantics (monotonic). The count lives with whatever keeps it — an
// atomic, or state behind its owner's lock — so the path that counts never
// touches the registry.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, labels, KindCounter, func() *instrument {
		return &instrument{fn: fn}
	})
}

// GaugeFunc registers a scrape-time callback exported with gauge semantics.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, labels, KindGauge, func() *instrument {
		return &instrument{fn: fn}
	})
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	Le    float64 // upper bound (+Inf for the last)
	Count uint64  // observations ≤ Le (cumulative)
}

// Point is one series' state at snapshot time.
type Point struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value holds counters and gauges.
	Value float64
	// Count, Sum, and Buckets hold histograms.
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snap is a registry snapshot: one Point per series, sorted by name then
// labels, safe to keep while the registry keeps moving.
type Snap []Point

// Snapshot captures every series, including scrape-time callbacks. Safe for
// concurrent use with instrument updates; a nil registry yields nil.
func (r *Registry) Snapshot() Snap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ins := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	out := make(Snap, 0, len(ins))
	for _, in := range ins {
		p := Point{Name: in.name, Labels: in.labels, Kind: in.kind}
		switch {
		case in.fn != nil:
			p.Value = in.fn()
		case in.hist != nil:
			var cum uint64
			p.Buckets = make([]Bucket, 0, len(in.hist.bounds)+1)
			for i, b := range in.hist.bounds {
				cum += in.hist.counts[i].Load()
				p.Buckets = append(p.Buckets, Bucket{Le: b, Count: cum})
			}
			cum += in.hist.counts[len(in.hist.bounds)].Load()
			p.Buckets = append(p.Buckets, Bucket{Le: math.Inf(1), Count: cum})
			p.Count = in.hist.Count()
			p.Sum = in.hist.Sum()
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return seriesKey("", out[i].Labels) < seriesKey("", out[j].Labels)
	})
	return out
}

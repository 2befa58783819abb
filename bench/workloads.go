package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// workload is one row of the benchmark: what its main window runs. The plane
// the main window leaves idle is read by a probe after it, because the
// acceptance driver wants every end-to-end metric from every workload.
type workload struct {
	name string
	why  string
	// payload is the main window's data payload size; 0 leaves the data
	// plane idle there.
	payload int
	// churn is the main window's control load.
	churn churnKind
	// own lists the end-to-end metrics the workload is about, besides setup_s:
	// the ones -diff and -selfcheck judge on it. The rest are its probe's.
	own []string
}

// owns reports whether the workload is about the metric.
func (w workload) owns(metric string) bool {
	for _, m := range w.own {
		if m == metric {
			return true
		}
	}
	return metric == "setup_s"
}

type churnKind int

const (
	churnNone   churnKind = iota
	churnClosed           // back to back on conn 1, data idle
	churnOpen             // fixed rate on conn 2 under data saturation
)

var workloads = []workload{
	{name: "fanout64", payload: smallPayload,
		own: []string{"data_pkts_per_s", "mem_peak_rss_mb"},
		why: "64 B packets, control plane idle: per-packet cost (codec, queue hop, FIB lookup, wake-ups between cores) dominates"},
	{name: "fanout1400", payload: maxPayload,
		own: []string{"data_pkts_per_s", "mem_peak_rss_mb"},
		why: "1400 B packets on the same path: per-byte cost (per-link copy, CRC over payload, buffer class) dominates"},
	{name: "churn", churn: churnClosed,
		own: []string{"ctl_install_p50_us", "mem_retained_mb"},
		why: "back-to-back join/leave events, data plane idle: machine step, route compute, flood, ordered apply, FIB compile"},
	{name: "churn-loaded", payload: smallPayload, churn: churnOpen,
		own: []string{"data_pkts_per_s", "ctl_install_p50_us", "mem_retained_mb"},
		why: "fanout64's data load plus 400 events/s on another connection: both planes share queues, locks and two cores"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadedEventRate is churn-loaded's control load. Fixed, so that a faster
// control plane cannot "cost" data throughput by issuing more events.
const loadedEventRate = 400

// config sizes one run. fullConfig derives it from -seconds; quickConfig is
// the smoke mode.
type config struct {
	seed  int64
	trace bool

	boots int // cold boots; setup_s is their median

	warm   time.Duration // data warm-up before the measured slices
	slices int           // measured data slices in a main window
	slice  time.Duration

	churn groups // main window of churn, on conn 1
	probe groups // control probe after a data-only main window, on conn 2

	probeSlices int // data probe after churn's main window

	diagSlices int // traced run: slices per diagnostic data run
	diagEvents int // traced run: events per diagnostic control run

	installTimeout time.Duration
	// iterScale divides the isolated layer timings' iteration counts.
	iterScale int
	// tamper, when set, is handed the cluster right after boot (tests inject
	// loss through it).
	tamper func(*bed)
}

// fullConfig: every main window lasts `seconds`. Data windows are that many
// one-second slices; churn is that many groups of 2000 events, one group a
// second. Either probe takes half as long.
func fullConfig(seconds int) config {
	return config{
		boots:  5,
		warm:   2 * time.Second,
		slices: seconds, slice: time.Second,
		churn:       groups{count: seconds, per: 2000, every: time.Second},
		probe:       groups{count: seconds, per: 500, every: time.Second / 2},
		probeSlices: (seconds + 1) / 2,
		diagSlices:  3, diagEvents: 2000,
		installTimeout: time.Second,
		iterScale:      1,
	}
}

// quickConfig: 0.3 s data windows, 500 churn events.
func quickConfig() config {
	return config{
		boots:  2,
		warm:   100 * time.Millisecond,
		slices: 3, slice: 100 * time.Millisecond,
		churn:       groups{count: 5, per: 100, every: 20 * time.Millisecond},
		probe:       groups{count: 2, per: 100, every: 20 * time.Millisecond},
		probeSlices: 2,
		diagSlices:  1, diagEvents: 100,
		installTimeout: time.Second,
		iterScale:      100,
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Host      host               `json:"host"`
	Draw      draw               `json:"draw"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are read beside the metrics, never compared: the slice
	// inter-quartile range, sample counts, generator lateness.
	Notes map[string]float64 `json:"notes"`

	spans map[string]*spanLog
}

// measured carries the windows a workload produced to the metric code.
type measured struct {
	boots    []float64
	data     dataWindow
	ctl      ctlWindow
	drv      *dataDriver
	inj      *injector
	retained float64 // MB, after the main window
	peakRSS  float64 // MB, after the main window
}

// runWorkload runs one workload in this process and audits it.
func runWorkload(w workload, cfg config, out io.Writer) (*result, error) {
	started := time.Now()
	runtime.GOMAXPROCS(benchProcs)
	d := newDraw(cfg.seed)
	res := &result{Workload: w.name, Traced: cfg.trace, Host: fingerprint(), Draw: d,
		Metrics: map[string]float64{}, Notes: map[string]float64{}}
	fmt.Fprintf(out, "workload %s — %s\n%s\n%s\n", w.name, w.why, d, res.Host)
	fmt.Fprintln(out, "fabric: in-process ChanFabric; no traffic crosses a real link or the loopback interface")

	if cfg.trace {
		res.Metrics["host.calib_crc_mbps"] = res.Host.CalibMBps
		if err := isolatedLayers(res.Metrics, d, cfg.iterScale); err != nil {
			return nil, err
		}
	}

	payloadLen := w.payload
	if payloadLen == 0 {
		payloadLen = smallPayload // the data probe
	}
	b, boots, err := coldBoots(cfg.boots, d, payloadLen)
	if err != nil {
		return nil, err
	}
	defer b.c.Close()
	if cfg.tamper != nil {
		cfg.tamper(b)
	}

	var dataSpans, ctlSpans *spanLog
	if cfg.trace {
		dataSpans, ctlSpans = newSpanLog(started), newSpanLog(started)
		res.spans = map[string]*spanLog{"data": dataSpans, "ctl": ctlSpans}
	}
	m := measured{boots: boots, drv: &dataDriver{b: b, spans: dataSpans}}
	stolen := stolenMS()
	mainDone := func() { m.retained, m.peakRSS = retainedMB(), peakRSSMB() }

	switch w.churn {
	case churnNone:
		m.drv.run(cfg.warm)
		m.data = m.drv.measure(cfg.slices, cfg.slice)
		mainDone()
		m.inj = newInjector(b, loadedConn, false, cfg.installTimeout, ctlSpans)
		m.ctl = m.inj.closedLoop(cfg.probe)
	case churnClosed:
		m.inj = newInjector(b, dataConn, false, cfg.installTimeout, ctlSpans)
		m.ctl = m.inj.closedLoop(cfg.churn)
		mainDone()
		m.drv.run(cfg.warm / 2)
		m.data = m.drv.measure(cfg.probeSlices, cfg.slice)
	case churnOpen:
		m.inj = newInjector(b, loadedConn, true, cfg.installTimeout, ctlSpans)
		stop, done := make(chan struct{}), make(chan struct{})
		var events []timedEvent
		go func() {
			defer close(done)
			events = m.inj.openLoop(loadedEventRate, stop)
		}()
		m.drv.run(cfg.warm)
		m.data = m.drv.measure(cfg.slices, cfg.slice)
		close(stop)
		<-done
		mainDone()
		m.ctl = loadedWindow(m.data, events)
	}

	res.Notes["host_stolen_ms"] = stolenMS() - stolen
	if cfg.trace {
		windowLayers(res, b, m)
	} else {
		endToEnd(res, m)
	}
	audit(res, b, m)
	if cfg.trace {
		// The diagnostics boot their own clusters; this one is done.
		links, relays := treeShape(b)
		b.c.Close()
		if err := diagnostics(res, d, cfg); err != nil {
			return nil, err
		}
		reconcile(res.Metrics, res.Notes, payloadLen, links, relays)
	}
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// loadedWindow keeps the events churn-loaded injected inside the data window.
func loadedWindow(data dataWindow, events []timedEvent) ctlWindow {
	w := ctlWindow{from: data.from, to: data.to}
	if len(data.slices) == 0 {
		return w
	}
	from, to := data.slices[0].from, data.slices[len(data.slices)-1].to
	for _, ev := range events {
		if !ev.at.Before(from) && ev.at.Before(to) {
			w.installUS = append(w.installUS, ev.tookUS)
			w.lateUS = append(w.lateUS, ev.lateUS)
		}
	}
	return w
}

// endToEnd fills in the five end-to-end metrics.
func endToEnd(res *result, m measured) {
	res.Metrics["setup_s"] = median(m.boots)
	rates := m.data.rates()
	q1, q2, q3 := quartiles(rates)
	res.Metrics["data_pkts_per_s"] = q2
	res.Notes["data_pkts_per_s_slice_iqr"] = q3 - q1
	res.Notes["data_slices"] = float64(len(rates))
	res.Notes["data_cpu_us_per_pkt"] = m.data.cpuPerPacketUS()
	res.Metrics["ctl_install_p50_us"] = median(m.ctl.installUS)
	res.Notes["ctl_events"] = float64(len(m.ctl.installUS))
	if len(m.ctl.lateUS) > 0 {
		res.Notes["ctl_gen_late_p50_us"] = median(m.ctl.lateUS)
		res.Notes["ctl_gen_late_p99_us"] = percentile(sorted(m.ctl.lateUS), 99)
	}
	res.Metrics["mem_retained_mb"] = m.retained
	res.Metrics["mem_peak_rss_mb"] = m.peakRSS
}

// audit checks the program's outputs and totals the operations. Operations
// are originated packets plus injected membership events; an operation has
// failed if it was refused, lost, timed out, or delivered the wrong bytes.
func audit(res *result, b *bed, m measured) {
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	if err := b.c.WaitConverged(30 * time.Second); err != nil {
		fail("not converged after the run: %v", err)
	}
	st := b.c.ForwardStats()
	want := deliveriesPerPacket * st.Originated
	switch seen := uint64(b.sink.delivered()); {
	case seen != st.Delivered:
		fail("switches delivered %d payloads, the sink saw %d", st.Delivered, seen)
	case st.Delivered > want:
		fail("delivered %d, more than %d×%d originated", st.Delivered, deliveriesPerPacket, st.Originated)
	case st.Delivered < want && m.drv.lost == 0:
		fail("%d deliveries missing that the driver never counted as lost", want-st.Delivered)
	}
	// conn 1's tree only ever changes in churn's own, data-idle window, so no
	// workload may drop a packet for lack of a route.
	if st.Drops() != 0 {
		fail("drops: no-entry %d, no-route %d, hop-budget %d, loop %d",
			st.DropNoEntry, st.DropNoRoute, st.DropHops, st.DropLoop)
	}
	for _, src := range b.d.Members {
		if e := b.c.Node(src).FIB().Lookup(dataConn); e == nil || !e.CanSend {
			fail("source %d may not send on conn %d after the run", src, dataConn)
		}
	}
	if m.drv.sent != st.Originated {
		fail("driver sent %d packets, switches originated %d", m.drv.sent, st.Originated)
	}
	bad := uint64(b.sink.bad.Load())
	if bad > 0 {
		fail("%d deliveries carried the wrong connection or payload", bad)
	}
	if m.drv.refused > 0 {
		fail("%d packets refused", m.drv.refused)
	}
	if m.drv.lost > 0 {
		fail("%d packets lost", m.drv.lost)
	}
	if m.inj.failed > 0 {
		fail("%d membership events refused or not installed within %v", m.inj.failed, m.inj.timeout)
	}
	res.Attempted = m.drv.sent + m.drv.refused + m.inj.injected
	res.Failed = m.drv.refused + m.drv.lost + m.inj.failed + bad
	if len(res.Failures) > 0 && res.Failed == 0 {
		res.Failed = 1 // an audit mismatch with no single operation to pin it on
	}
	res.Correct = len(res.Failures) == 0
}

package rt

import (
	"strconv"
	"sync/atomic"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
)

// nodeObs caches a node's metric handles. With no registry configured every
// handle is nil and the instruments' nil-receiver fast path makes each
// update site a single predictable branch — the disabled cost the
// micro-benchmarks bound.
type nodeObs struct {
	reg *obs.Registry
	sw  obs.Label

	// transport plane
	framesRecv *obs.Counter // flood frames accepted (first delivery)
	framesDup  *obs.Counter // duplicate flood deliveries suppressed
	floodsOrig *obs.Counter // floods this node originated
	floodsFwd  *obs.Counter // store-and-forward relays of others' floods
	unicasts   *obs.Counter // resync unicasts sent
	sendErrs   *obs.Counter // transport send failures (flood, forward, unicast) and unframeable unicasts

	// protocol plane
	batches   *obs.Counter   // ReceiveBatch invocations
	batchDur  *obs.Histogram // seconds per batch, machine lock held
	eventsIn  *obs.Counter   // local events handled
	eventDur  *obs.Histogram // seconds per event, machine lock held
	resyncTmr *obs.Counter   // resync timer firings

	// The data plane has no handles here: its outcomes are counted once, in
	// the node's own atomics, and exported by registerFuncs at scrape time.
}

// newNodeObs registers the node's series (labeled by switch) and returns the
// cached handles. A nil registry yields the all-nil zero value.
func newNodeObs(reg *obs.Registry, id int) nodeObs {
	if reg == nil {
		return nodeObs{}
	}
	sw := obs.L("switch", strconv.Itoa(id))
	return nodeObs{
		reg:        reg,
		sw:         sw,
		framesRecv: reg.Counter("dgmc_frames_received_total", sw),
		framesDup:  reg.Counter("dgmc_frames_duplicate_suppressed_total", sw),
		floodsOrig: reg.Counter("dgmc_floods_originated_total", sw),
		floodsFwd:  reg.Counter("dgmc_floods_forwarded_total", sw),
		unicasts:   reg.Counter("dgmc_unicasts_sent_total", sw),
		sendErrs:   reg.Counter("dgmc_transport_send_errors_total", sw),
		batches:    reg.Counter("dgmc_lsa_batches_total", sw),
		batchDur:   reg.Histogram("dgmc_lsa_batch_seconds", obs.DurationBuckets, sw),
		eventsIn:   reg.Counter("dgmc_local_events_total", sw),
		eventDur:   reg.Histogram("dgmc_event_handle_seconds", obs.DurationBuckets, sw),
		resyncTmr:  reg.Counter("dgmc_resync_timer_fires_total", sw),
	}
}

// enabled reports whether metrics are on (used to gate time.Now() pairs and
// per-connection series lookups off the disabled path entirely).
func (o *nodeObs) enabled() bool { return o.reg != nil }

// mcFlooded counts one originated MC LSA on the per-connection series.
func (o *nodeObs) mcFlooded(conn lsa.ConnID) {
	if o.reg == nil {
		return
	}
	o.reg.Counter("dgmc_mc_lsas_flooded_total", o.sw,
		obs.L("conn", strconv.Itoa(int(conn)))).Inc()
}

// mcReceived counts one consumed MC LSA on the per-connection series.
func (o *nodeObs) mcReceived(conn lsa.ConnID) {
	if o.reg == nil {
		return
	}
	o.reg.Counter("dgmc_mc_lsas_received_total", o.sw,
		obs.L("conn", strconv.Itoa(int(conn)))).Inc()
}

// forwardSeries names each data-plane outcome once, for the node-wide
// dgmc_data_* series and the per-connection dgmc_conn_data_* series alike.
var forwardSeries = []struct {
	node, conn, reason string
	pick               func(ForwardStats) uint64
}{
	{"dgmc_data_frames_originated_total", "dgmc_conn_data_originated_total", "", func(s ForwardStats) uint64 { return s.Originated }},
	{"dgmc_data_frames_forwarded_total", "dgmc_conn_data_forwarded_total", "", func(s ForwardStats) uint64 { return s.Forwarded }},
	{"dgmc_data_delivered_total", "dgmc_conn_data_delivered_total", "", func(s ForwardStats) uint64 { return s.Delivered }},
	{"dgmc_data_drops_total", "dgmc_conn_data_drops_total", "no-entry", func(s ForwardStats) uint64 { return s.DropNoEntry }},
	{"dgmc_data_drops_total", "dgmc_conn_data_drops_total", "no-route", func(s ForwardStats) uint64 { return s.DropNoRoute }},
	{"dgmc_data_drops_total", "dgmc_conn_data_drops_total", "hop-budget", func(s ForwardStats) uint64 { return s.DropHops }},
	{"dgmc_data_drops_total", "dgmc_conn_data_drops_total", "loop", func(s ForwardStats) uint64 { return s.DropLoop }},
}

// withReason appends the drop-reason label when the series has one.
func withReason(reason string, labels ...obs.Label) []obs.Label {
	if reason != "" {
		labels = append(labels, obs.L("reason", reason))
	}
	return labels
}

// registerFuncs exports, as scrape-time callbacks, every counter the node
// already keeps for its own purposes: the protocol machine's (guarded by
// n.mu — each scrape briefly takes the node lock, exactly like
// Node.Metrics()) and the data plane's (plain atomics). The hot paths are
// untouched, and a series can never disagree with the accessor that reads
// the same value.
//
// The registry deduplicates func-instruments by (name, labels) and keeps the
// first closure, so a restarted switch cannot re-register its series — the
// closures instead follow the succession chain (Node.live) to whatever
// incarnation currently serves the switch ID.
func (n *Node) registerFuncs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sw := obs.L("switch", strconv.Itoa(int(n.id)))
	mf := func(sel func(*core.Metrics) float64) func() float64 {
		return func() float64 {
			ln := n.live()
			ln.mu.Lock()
			defer ln.mu.Unlock()
			return sel(ln.machine.Metrics())
		}
	}
	type series struct {
		name string
		sel  func(*core.Metrics) float64
	}
	for _, s := range []series{
		{"dgmc_machine_events_total", func(m *core.Metrics) float64 { return float64(m.Events) }},
		{"dgmc_machine_computations_total", func(m *core.Metrics) float64 { return float64(m.Computations) }},
		{"dgmc_machine_withdrawn_total", func(m *core.Metrics) float64 { return float64(m.Withdrawn) }},
		{"dgmc_machine_compute_seconds_total", func(m *core.Metrics) float64 { return float64(m.ComputeNanos) / 1e9 }},
		{"dgmc_machine_installs_total", func(m *core.Metrics) float64 { return float64(m.Installs) }},
		{"dgmc_machine_mc_lsas_total", func(m *core.Metrics) float64 { return float64(m.MCLSAs) }},
		{"dgmc_machine_non_mc_lsas_total", func(m *core.Metrics) float64 { return float64(m.NonMCLSAs) }},
		{"dgmc_machine_reopt_checks_total", func(m *core.Metrics) float64 { return float64(m.ReoptChecks) }},
		{"dgmc_machine_out_of_order_lsas_total", func(m *core.Metrics) float64 { return float64(m.OutOfOrderLSAs) }},
		{"dgmc_machine_resync_requests_total", func(m *core.Metrics) float64 { return float64(m.ResyncRequests) }},
		{"dgmc_machine_resync_responses_total", func(m *core.Metrics) float64 { return float64(m.ResyncResponses) }},
		{"dgmc_machine_resync_giveups_total", func(m *core.Metrics) float64 { return float64(m.ResyncGiveUps) }},
		{"dgmc_machine_resync_rearms_total", func(m *core.Metrics) float64 { return float64(m.ResyncRearms) }},
		{"dgmc_machine_reconciles_total", func(m *core.Metrics) float64 { return float64(m.Reconciles) }},
		{"dgmc_machine_replay_refloods_total", func(m *core.Metrics) float64 { return float64(m.Replays) }},
		{"dgmc_machine_catchups_served_total", func(m *core.Metrics) float64 { return float64(m.CatchUpsServed) }},
		{"dgmc_machine_catchups_applied_total", func(m *core.Metrics) float64 { return float64(m.CatchUpsApplied) }},
	} {
		reg.CounterFunc(s.name, mf(s.sel), sw)
	}
	reg.GaugeFunc("dgmc_gap_buffer_depth", func() float64 {
		ln := n.live()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return float64(ln.machine.GapBufferDepth())
	}, sw)
	reg.GaugeFunc("dgmc_event_log_depth", func() float64 {
		ln := n.live()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return float64(ln.machine.EventLogDepth())
	}, sw)
	reg.GaugeFunc("dgmc_event_log_bytes", func() float64 {
		ln := n.live()
		ln.mu.Lock()
		defer ln.mu.Unlock()
		return float64(ln.machine.EventLogBytes())
	}, sw)
	reg.GaugeFunc("dgmc_inbox_depth", func() float64 {
		ln := n.live()
		ln.inMu.Lock()
		defer ln.inMu.Unlock()
		return float64(len(ln.inbox))
	}, sw)
	reg.GaugeFunc("dgmc_seen_origins", func() float64 {
		return float64(n.live().seen.size())
	}, sw)
	reg.GaugeFunc("dgmc_fib_entries", func() float64 {
		return float64(n.live().fib.Load().Size())
	}, sw)
	reg.CounterFunc("dgmc_fib_compiles_total", func() float64 {
		return float64(n.live().FIBCompiles())
	}, sw)
	reg.CounterFunc("dgmc_frame_decode_errors_total", func() float64 {
		return float64(n.live().DecodeErrors())
	}, sw)
	reg.CounterFunc("dgmc_rx_parks_total", func() float64 {
		parks, _ := n.live().RxWaits()
		return float64(parks)
	}, sw)
	reg.CounterFunc("dgmc_rx_linger_hits_total", func() float64 {
		_, hits := n.live().RxWaits()
		return float64(hits)
	}, sw)
	for _, fs := range forwardSeries {
		reg.CounterFunc(fs.node, func() float64 {
			return float64(fs.pick(n.live().ForwardStats()))
		}, withReason(fs.reason, sw)...)
	}
	for _, bs := range []struct {
		name string
		pick func(*batchCounters) *atomic.Uint64
	}{
		{"dgmc_rx_batches_total", func(b *batchCounters) *atomic.Uint64 { return &b.rxBatches }},
		{"dgmc_rx_frames_total", func(b *batchCounters) *atomic.Uint64 { return &b.rxFrames }},
		{"dgmc_tx_bursts_total", func(b *batchCounters) *atomic.Uint64 { return &b.txBursts }},
		{"dgmc_tx_frames_total", func(b *batchCounters) *atomic.Uint64 { return &b.txFrames }},
	} {
		reg.CounterFunc(bs.name, func() float64 {
			return float64(bs.pick(&n.live().batching).Load())
		}, sw)
	}
}

// connForwardSeries exports per-connection delivery series for conn:
// sent/forwarded/delivered plus the four-way drop taxonomy, each reading the
// connection's counter stripe at scrape time, and a per-connection FIB
// fan-out gauge (scrape closures follow the succession chain like every func
// instrument). Called from recompileFIBLocked for each connection compiled —
// the control path, never per packet — and idempotent by registry dedup, so
// churning connections re-register for free. Stripe accuracy: conns map onto
// 64 stripes, so two connections 64 apart share a series' backing counters
// (exact below that).
func (o *nodeObs) connForwardSeries(n *Node, conn lsa.ConnID) {
	cl := obs.L("conn", strconv.Itoa(int(conn)))
	for _, fs := range forwardSeries {
		o.reg.CounterFunc(fs.conn, func() float64 {
			return float64(fs.pick(n.live().ConnForwardStats(conn)))
		}, withReason(fs.reason, o.sw, cl)...)
	}
	o.reg.GaugeFunc("dgmc_conn_fib_fanout", func() float64 {
		e := n.live().fib.Load().Lookup(conn)
		if e == nil {
			return 0
		}
		return float64(len(e.Neighbors))
	}, o.sw, cl)
}

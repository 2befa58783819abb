package rt

import (
	"strconv"
	"sync/atomic"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
)

// ctlCounters are the node's control-plane counts, kept whether or not a
// registry is attached and exported by registerFuncs at scrape time.
type ctlCounters struct {
	framesRecv atomic.Uint64 // flood frames accepted (first delivery)
	framesDup  atomic.Uint64 // duplicate flood deliveries suppressed
	floodsOrig atomic.Uint64 // floods this node originated
	floodsFwd  atomic.Uint64 // flood relay link copies the transport accepted
	unicasts   atomic.Uint64 // resync unicasts sent
	sendErrs   atomic.Uint64 // refused sends (flood, forward, unicast) and unframeable unicasts
	resyncTmr  atomic.Uint64 // resync timer firings
}

// mcLSACounters count the MC LSAs of one connection stripe (conn & 63, as
// for forwardStripes) this switch originated and consumed from the fabric.
// Unpadded: they move once per LSA, not per packet.
type mcLSACounters struct{ flooded, received atomic.Uint64 }

// mcLSAStripes is the node's per-connection LSA counter set, 1 KB per switch.
type mcLSAStripes [fwdStripes]mcLSACounters

// stripe returns the LSA counter stripe for conn.
func (s *mcLSAStripes) stripe(conn lsa.ConnID) *mcLSACounters {
	return &s[uint32(conn)&(fwdStripes-1)]
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
// keeps: the protocol machine's (guarded by n.mu — each scrape briefly takes
// the node lock, exactly like Node.Metrics()) and the control and data
// planes' plain atomics. Nothing that counts touches the registry, and a
// series can never disagree with the accessor that reads the same value.
//
// The registry deduplicates func-instruments by (name, labels) and keeps the
// first closure, so a restarted switch cannot re-register its series — the
// closures instead follow the succession chain (Node.live) to whatever
// incarnation currently serves the switch ID, and report its counts, which
// start from zero. It also registers the node's two histograms, the only
// series the node pushes to.
func (n *Node) registerFuncs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sw := obs.L("switch", strconv.Itoa(int(n.id)))
	n.batchDur = reg.Histogram("dgmc_lsa_batch_seconds", obs.DurationBuckets, sw)
	n.eventDur = reg.Histogram("dgmc_event_handle_seconds", obs.DurationBuckets, sw)
	n.connSeries = make(map[lsa.ConnID]struct{})
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
	reg.GaugeFunc("dgmc_seen_origins", func() float64 {
		return float64(n.live().SeenOrigins())
	}, sw)
	reg.GaugeFunc("dgmc_fib_entries", func() float64 {
		return float64(n.live().fib.Load().Size())
	}, sw)
	reg.CounterFunc("dgmc_rx_parks_total", func() float64 {
		parks, _, _ := n.live().RxWaits()
		return float64(parks)
	}, sw)
	reg.CounterFunc("dgmc_rx_linger_hits_total", func() float64 {
		_, hits, _ := n.live().RxWaits()
		return float64(hits)
	}, sw)
	reg.CounterFunc("dgmc_rx_linger_yields_total", func() float64 {
		_, _, yields := n.live().RxWaits()
		return float64(yields)
	}, sw)
	for _, fs := range forwardSeries {
		reg.CounterFunc(fs.node, func() float64 {
			return float64(fs.pick(n.live().ForwardStats()))
		}, withReason(fs.reason, sw)...)
	}
	for _, as := range []struct {
		name string
		pick func(*Node) *atomic.Uint64
	}{
		{"dgmc_frames_received_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.framesRecv }},
		{"dgmc_frames_duplicate_suppressed_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.framesDup }},
		{"dgmc_floods_originated_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.floodsOrig }},
		{"dgmc_floods_forwarded_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.floodsFwd }},
		{"dgmc_unicasts_sent_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.unicasts }},
		{"dgmc_transport_send_errors_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.sendErrs }},
		{"dgmc_resync_timer_fires_total", func(ln *Node) *atomic.Uint64 { return &ln.ctl.resyncTmr }},
		{"dgmc_fib_compiles_total", func(ln *Node) *atomic.Uint64 { return &ln.fibCompiles }},
		{"dgmc_fib_swaps_total", func(ln *Node) *atomic.Uint64 { return &ln.fibSwaps }},
		{"dgmc_frame_decode_errors_total", func(ln *Node) *atomic.Uint64 { return &ln.decodeErrs }},
		{"dgmc_rx_batches_total", func(ln *Node) *atomic.Uint64 { return &ln.batching.rxBatches }},
		{"dgmc_rx_frames_total", func(ln *Node) *atomic.Uint64 { return &ln.batching.rxFrames }},
		{"dgmc_tx_bursts_total", func(ln *Node) *atomic.Uint64 { return &ln.batching.txBursts }},
		{"dgmc_tx_frames_total", func(ln *Node) *atomic.Uint64 { return &ln.batching.txFrames }},
	} {
		reg.CounterFunc(as.name, func() float64 {
			return float64(as.pick(n.live()).Load())
		}, sw)
	}
}

// connForwardSeries exports conn's per-connection series: sent/forwarded/
// delivered plus the four-way drop taxonomy, read from the connection's
// forward stripe; MC LSAs flooded and received, read from its LSA stripe;
// and a FIB fan-out gauge. Like every func series the closures follow
// Node.live. recompileFIBLocked calls it once per connection, the first time
// a compiled table holds an entry for it, so churn never reaches the
// registry. Stripe accuracy: conns map onto 64 stripes, so two connections
// 64 apart share a series' backing counters (exact below that).
func (n *Node) connForwardSeries(conn lsa.ConnID) {
	sw := obs.L("switch", strconv.Itoa(int(n.id)))
	cl := obs.L("conn", strconv.Itoa(int(conn)))
	for _, fs := range forwardSeries {
		n.reg.CounterFunc(fs.conn, func() float64 {
			return float64(fs.pick(n.live().ConnForwardStats(conn)))
		}, withReason(fs.reason, sw, cl)...)
	}
	n.reg.CounterFunc("dgmc_mc_lsas_flooded_total", func() float64 {
		return float64(n.live().mcLSAs.stripe(conn).flooded.Load())
	}, sw, cl)
	n.reg.CounterFunc("dgmc_mc_lsas_received_total", func() float64 {
		return float64(n.live().mcLSAs.stripe(conn).received.Load())
	}, sw, cl)
	n.reg.GaugeFunc("dgmc_conn_fib_fanout", func() float64 {
		e := n.live().fib.Load().Lookup(conn)
		if e == nil {
			return 0
		}
		return float64(len(e.Neighbors))
	}, sw, cl)
}

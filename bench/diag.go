package main

import (
	"fmt"
	"runtime"

	"dgmc/internal/obs"
)

// windowLayers fills the per-layer counts and ratios sampled at the edges of
// the workload's own windows (traced run).
func windowLayers(res *result, b *bed, m measured) {
	out := res.Metrics
	dw, cw := m.data, m.ctl
	per := func(n, by float64) float64 {
		if by == 0 {
			return 0
		}
		return n / by
	}

	orig := float64(dw.to.fwd.Originated - dw.from.fwd.Originated)
	out["rt.originate_ns_per_pkt"] = per(float64(dw.sendNS), orig)
	out["rt.forwards_per_pkt"] = per(float64(dw.to.fwd.Forwarded-dw.from.fwd.Forwarded), orig)
	out["rt.delivered_per_pkt"] = per(float64(dw.to.fwd.Delivered-dw.from.fwd.Delivered), orig)
	out["rt.drops_per_mpkt"] = per(float64(dw.to.fwd.Drops()-dw.from.fwd.Drops())*1e6, orig)
	bursts := sorted(dw.burstsUS)
	out["rt.burst_p50_us"] = percentile(bursts, 50)
	out["rt.burst_p99_us"] = percentile(bursts, 99)
	wall := dw.to.at.Sub(dw.from.at)
	out["rt.cpu_util"] = per(float64(dw.to.cpu-dw.from.cpu), float64(wall)*benchProcs)
	out["rt.cpu_us_per_pkt"] = dw.cpuPerPacketUS()
	var pkts float64
	for _, s := range dw.slices {
		pkts += float64(s.packets)
	}
	out["go.allocs_per_pkt"] = per(float64(dw.to.mem.Mallocs-dw.from.mem.Mallocs), pkts)
	out["go.alloc_bytes_per_pkt"] = per(float64(dw.to.mem.TotalAlloc-dw.from.mem.TotalAlloc), pkts)

	ev := float64(len(cw.installUS))
	cf, ct := cw.from.core, cw.to.core
	out["rt.fib_compiles_per_event"] = per(float64(cw.to.compiles-cw.from.compiles), ev)
	out["core.computations_per_event"] = per(float64(ct.Computations-cf.Computations), ev)
	out["core.mclsas_per_event"] = per(float64(ct.MCLSAs-cf.MCLSAs), ev)
	out["core.installs_per_event"] = per(float64(ct.Installs-cf.Installs), ev)
	out["core.compute_us_per_event"] = per(float64(ct.ComputeNanos-cf.ComputeNanos)/1e3, ev)
	out["core.out_of_order_lsas"] = float64(ct.OutOfOrderLSAs - cf.OutOfOrderLSAs)
	out["core.resync_requests"] = float64(ct.ResyncRequests - cf.ResyncRequests)
	installs := sorted(cw.installUS)
	out["ctl.install_p90_us"] = percentile(installs, 90)
	out["ctl.install_p99_us"] = percentile(installs, 99)
	out["ctl.install_max_us"] = percentile(installs, 100)
	active := cw.busy // closed loop: time inside the groups
	if active == 0 {
		active = cw.to.at.Sub(cw.from.at) // open loop: the whole window
	}
	out["ctl.events_per_s"] = per(ev, active.Seconds())
	out["ctl.gen_late_p99_us"] = percentile(sorted(cw.lateUS), 99)
	out["go.allocs_per_event"] = per(float64(cw.to.mem.Mallocs-cw.from.mem.Mallocs), ev)
	out["go.alloc_bytes_per_event"] = per(float64(cw.to.mem.TotalAlloc-cw.from.mem.TotalAlloc), ev)

	// GC over both windows, which are one and the same in churn-loaded.
	windows := [][2]edge{{dw.from, dw.to}}
	if !cw.from.at.Equal(dw.from.at) {
		windows = append(windows, [2]edge{cw.from, cw.to})
	}
	var cycles, pauseNS, secs float64
	for _, w := range windows {
		cycles += float64(w[1].mem.NumGC - w[0].mem.NumGC)
		pauseNS += float64(w[1].mem.PauseTotalNs - w[0].mem.PauseTotalNs)
		secs += w[1].at.Sub(w[0].at).Seconds()
	}
	out["go.gc_cycles_per_s"] = per(cycles, secs)
	out["go.gc_pause_total_ms"] = pauseNS / 1e6

	// The traced run's own end-to-end readings, for the tracing overhead.
	e2e := &result{Metrics: map[string]float64{}, Notes: map[string]float64{}}
	endToEnd(e2e, m)
	for k, v := range e2e.Metrics {
		res.Notes["traced."+k] = v
	}
}

// treeShape reads conn 1's installed tree out of the FIBs: per packet, how
// many links carry it (every link of the tree, once) and how many switches
// relay it onward — the multipliers recon needs.
func treeShape(b *bed) (links, relays float64) {
	member := map[int]bool{}
	for _, s := range b.d.Members {
		member[int(s)] = true
	}
	for _, n := range b.nodes {
		e := n.FIB().Lookup(dataConn)
		if e == nil {
			continue
		}
		links += float64(len(e.Neighbors)) / 2
		// A switch with two or more tree links relays every packet it does
		// not originate; a member originates one packet in five.
		switch {
		case len(e.Neighbors) < 2:
		case member[int(n.ID())]:
			relays += 1 - 1.0/groupSize
		default:
			relays++
		}
	}
	return links, relays
}

// dataRun boots a cluster of its own and measures a short fanout64 window.
func dataRun(d draw, o bootOpts, procs int, cfg config) (pktsPerS, cpuUSPerPkt float64, lost uint64, err error) {
	b, _, err := boot(d, smallPayload, o)
	if err != nil {
		return 0, 0, 0, err
	}
	defer b.c.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	drv := &dataDriver{b: b}
	drv.run(cfg.warm / 2)
	w := drv.measure(cfg.diagSlices, cfg.slice)
	if drv.refused > 0 {
		return 0, 0, 0, fmt.Errorf("diagnostic data run: %d packets refused", drv.refused)
	}
	return median(w.rates()), w.cpuPerPacketUS(), drv.lost, nil
}

// ctlRun boots a cluster of its own and measures one group of back-to-back
// churn events on conn 1.
func ctlRun(d draw, o bootOpts, sleepPoll bool, cfg config) (ctlWindow, error) {
	b, _, err := boot(d, smallPayload, o)
	if err != nil {
		return ctlWindow{}, err
	}
	defer b.c.Close()
	inj := newInjector(b, dataConn, sleepPoll, cfg.installTimeout, nil)
	w := inj.closedLoop(groups{count: 1, per: cfg.diagEvents})
	if inj.failed > 0 {
		return w, fmt.Errorf("diagnostic control run: %d events failed", inj.failed)
	}
	return w, nil
}

// diagnostics are the traced run's fixed side experiments. They do not depend
// on the workload being traced: each boots its own cluster in fanout64's or
// churn's shape and changes one thing.
func diagnostics(res *result, d draw, cfg config) error {
	out := res.Metrics

	// Flight recorder and path sampling on versus off.
	off, _, _, err := dataRun(d, bootOpts{}, benchProcs, cfg)
	if err != nil {
		return err
	}
	on, _, _, err := dataRun(d, bootOpts{flightRecords: 4096, sampleEvery: 64}, benchProcs, cfg)
	if err != nil {
		return err
	}
	out["obs.flightrec_overhead_pct"] = (off - on) / off * 100

	// One core instead of two.
	p1, _, _, err := dataRun(d, bootOpts{}, 1, cfg)
	if err != nil {
		return err
	}
	out["diag.p1_pkts_per_s"] = p1
	out["diag.p1_over_p2"] = p1 / off

	// Loopback UDP instead of the in-process fabric.
	udp, udpCPU, udpLost, err := dataRun(d, bootOpts{udp: true}, benchProcs, cfg)
	if err != nil {
		return err
	}
	out["diag.udp_pkts_per_s"] = udp
	out["diag.udp_cpu_us_per_pkt"] = udpCPU
	res.Notes["diag.udp_lost_pkts"] = float64(udpLost)

	// Span collector attached versus not, and its own view of convergence.
	plain, err := ctlRun(d, bootOpts{}, false, cfg)
	if err != nil {
		return err
	}
	col := obs.NewSpanCollector(4 * cfg.diagEvents)
	traced, err := ctlRun(d, bootOpts{tracer: col}, false, cfg)
	if err != nil {
		return err
	}
	base := median(plain.installUS)
	out["obs.tracer_overhead_pct"] = (median(traced.installUS) - base) / base * 100
	churner := map[int]bool{}
	for _, s := range d.Churners {
		churner[int(s)] = true
	}
	var converge []float64
	for _, sp := range col.Spans() {
		if sp.Conn == dataConn && churner[sp.Origin] && sp.ConvergeNS > 0 {
			converge = append(converge, float64(sp.ConvergeNS)/1e3)
		}
	}
	out["obs.span_converge_p50_us"] = median(converge)
	res.Notes["obs.poller_p50_us_same_run"] = median(traced.installUS)

	// CPU per event with a sleeping poller, so the figure is the program's
	// own work and not the harness spinning.
	slept, err := ctlRun(d, bootOpts{}, true, cfg)
	if err != nil {
		return err
	}
	out["ctl.cpu_us_per_event"] = float64(slept.to.cpu-slept.from.cpu) / 1e3 / float64(len(slept.installUS))
	return nil
}

// floodSends is how many link transmissions one flooded LSA costs on the
// grid: the origin sends on every link, every other switch relays on all its
// links but the one it heard from, so 2·links − (switches − 1).
const floodSends = 2*(gridRows*(gridCols-1)+gridCols*(gridRows-1)) - (numSwitches - 1)

// reconcile sums the isolated layer costs, weighted by how often a packet or
// an event incurs each, and divides by the measured CPU figure. A ratio near
// one means the layers account for the end-to-end cost; the rest is what no
// isolated call shows (scheduler wake-ups between cores, the runtime's own
// locks, cache misses between switches).
func reconcile(out, notes map[string]float64, payload int, links, relays float64) {
	size := fmt.Sprint(payload)
	perHop := out["lsa.decode_data"+size+"_ns"] + out["fib.lookup_ns"] + out["rt.chan_hop"+size+"_ns"]
	dataNS := links*perHop + relays*out["lsa.patch_forward"+size+"_ns"] +
		out["lsa.patch_seq_ns"] + out["lsa.encode_data"+size+"_ns"]/batchPackets
	if cpu := out["rt.cpu_us_per_pkt"]; cpu > 0 {
		out["recon.data_layer_sum_over_e2e"] = dataNS / 1e3 / cpu
	}
	others := float64(numSwitches - 1)
	ctlUS := out["core.local_event_us"] + others*out["core.receive_batch_us"] +
		numSwitches*out["fib.compile_us"] +
		(out["lsa.mc_marshal_ns"]+others*out["lsa.mc_unmarshal_ns"])/1e3 +
		floodSends*(out["rt.chan_hop64_ns"]+out["lsa.decode_data64_ns"])/1e3
	if cpu := out["ctl.cpu_us_per_event"]; cpu > 0 {
		out["recon.ctl_layer_sum_over_e2e"] = ctlUS / cpu
	}
	notes["recon.data_layer_sum_ns"] = dataNS
	notes["recon.ctl_layer_sum_us"] = ctlUS
}

package rt

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// TestChurnSoakWithObservability repeats the chan-transport churn soak with
// full observability attached — a shared registry, a shared span collector,
// and a goroutine scraping both concurrently with the churn — and then
// checks the scraped output is non-empty and self-consistent. Run with
// -race, this is the soak the CI observability job relies on.
func TestChurnSoakWithObservability(t *testing.T) {
	g := soakGraph(t, soakSwitches)
	reg := obs.NewRegistry()
	spans := obs.NewSpanCollector(4096)
	c, err := NewCluster(ClusterConfig{
		Graph:    g,
		Registry: reg,
		Tracer:   spans,
	}, NewChanFabric(soakSwitches))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent scraper: exercise snapshot, delta, Prometheus rendering,
	// and span assembly while the cluster is under churn.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev obs.Snap
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			snap := reg.Snapshot()
			snap.Delta(prev)
			prev = snap
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			spans.Stats()
		}
	}()

	runChurnSoak(t, c, 0)
	close(stop)
	wg.Wait()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if out == "" {
		t.Fatal("registry rendered empty after a 220-event soak")
	}
	for _, want := range []string{
		"# TYPE dgmc_frames_received_total counter",
		"# TYPE dgmc_floods_originated_total counter",
		"# TYPE dgmc_lsa_batch_seconds histogram",
		"# TYPE dgmc_machine_computations_total counter",
		"# TYPE dgmc_machine_installs_total counter",
		"dgmc_mc_lsas_flooded_total",
		"dgmc_gap_buffer_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Cross-check one scrape-time counter against the machines directly.
	var wantInstalls float64
	for _, n := range c.Nodes() {
		wantInstalls += float64(n.Metrics().Installs)
	}
	var gotInstalls float64
	for _, p := range reg.Snapshot() {
		if p.Name == "dgmc_machine_installs_total" {
			gotInstalls += p.Value
		}
	}
	if wantInstalls == 0 || gotInstalls != wantInstalls {
		t.Errorf("scraped installs = %v, machines say %v", gotInstalls, wantInstalls)
	}

	// Span side: the soak's events must have produced chains whose spans
	// carry computations, floods, and installs.
	st := spans.Stats()
	if st.Spans == 0 {
		t.Fatal("no spans collected")
	}
	if st.Converged == 0 {
		t.Error("no span shows a completed install chain")
	}
	if st.MeanComputations <= 0 || st.MeanFloods <= 0 {
		t.Errorf("per-event costs not measured: %+v", st)
	}
	found := false
	for _, sp := range spans.Spans() {
		if sp.Installs > 0 && sp.Floods > 0 && sp.ConvergeNS > 0 && len(sp.Switches) > 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no span reconstructs a multi-switch event→flood→install chain")
	}
}

// TestFaultMetricsExported asserts the fault-recovery series reach a
// Prometheus scrape: the cluster-wide heal and restart counters count the
// harness operations, the per-switch give-up counter is present, and a
// restarted switch's machine series keep reporting the live incarnation
// (the registry pins the first closure per series, so this exercises the
// succession chain).
func TestFaultMetricsExported(t *testing.T) {
	g, err := topo.Grid(2, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c, err := NewCluster(ClusterConfig{
		Graph: g, Registry: reg, ResyncTimeout: resyncFast,
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	for _, sw := range []topo.SwitchID{0, 5} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition(gridGroups(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Churn through the restarted switch so its second incarnation has
	// machine activity of its own.
	if err := c.Join(2, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dgmc_resync_gave_up_total counter",
		"# TYPE dgmc_partitions_healed_total counter",
		"# TYPE dgmc_node_restarts_total counter",
		"dgmc_partitions_healed_total 1",
		"dgmc_node_restarts_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The switch-2 machine series must report the second incarnation: its
	// join above was handled by the new machine, the old one is closed.
	var sw2Events float64
	for _, p := range reg.Snapshot() {
		if p.Name == "dgmc_machine_events_total" && len(p.Labels) == 1 && p.Labels[0].Value == "2" {
			sw2Events = p.Value
		}
	}
	if want := float64(c.Node(2).Metrics().Events); sw2Events != want || want == 0 {
		t.Errorf("switch 2 machine series = %v, live machine says %v", sw2Events, want)
	}
}

// TestNodeDisabledObservability pins the disabled path: a cluster without a
// registry or tracer must work exactly as before and keep all instrument
// handles nil.
func TestNodeDisabledObservability(t *testing.T) {
	g := soakGraph(t, 4)
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Node(0)
	if n.obs.enabled() || n.obs.framesRecv != nil || n.obs.batchDur != nil {
		t.Fatal("disabled node must carry nil instruments")
	}
	if err := c.Join(0, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(2, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDataSeriesMatchAccessors pins the single set of data-plane counters:
// after a ledgered closed-loop send, and after a decode error at each of the sites that
// count one (frame, flood LSA, resync request, data payload), every
// node-wide dgmc_data_* series, dgmc_fib_compiles_total and
// dgmc_frame_decode_errors_total reads exactly what ForwardStats,
// FIBCompiles and DecodeErrors return — they are the same atomics — and the
// dgmc_rx_*/dgmc_tx_* batching series read the node's batch counters. A
// crash–restart must leave the series on the live incarnation.
func TestDataSeriesMatchAccessors(t *testing.T) {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	led := workload.NewLedger()
	fab := NewChanFabric(9)
	c, err := NewCluster(ClusterConfig{
		Graph: g, Registry: reg, ResyncTimeout: resyncFast,
		DataHandler: func(at topo.SwitchID, _ lsa.ConnID, src topo.SwitchID, seq uint64, _ []byte) {
			led.RecordRecv(at, workload.PacketID{Src: src, Seq: seq})
		},
	}, fab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	members := []topo.SwitchID{0, 4, 8}
	for _, sw := range members {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	blast := func(packets int, sources ...topo.SwitchID) {
		t.Helper()
		sent, refused := closedLoop(c, led, conn, members, sources, 1, 8, packets, fab.InFlight)
		if sent != uint64(packets) || refused != 0 {
			t.Fatalf("closed loop sent %d of %d (refused %d)", sent, packets, refused)
		}
		if err := c.Settle(50*time.Millisecond, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	blast(300, members...)

	// One undecodable frame per counting site, all aimed at switch 4, plus a
	// payload for a connection it has no entry for (a counted drop).
	inject := fab.Transport(3)
	frame := func(kind lsa.FrameKind, seq uint64, payload []byte) []byte {
		return lsa.EncodeFrame(&lsa.Frame{
			Version: lsa.FrameVersion, Kind: kind, Origin: 3, From: 3, Seq: seq, Payload: payload,
		})
	}
	for _, buf := range [][]byte{
		[]byte("not a frame"),
		frame(lsa.FrameFlood, 1<<40, []byte{0xff}),
		frame(lsa.FrameResyncReq, 1<<40+1, []byte{0xff}),
		frame(lsa.FrameData, 1, []byte{0xff}),
		dataBuf(lsa.ConnID(99), 3, 3, 2, 8, nil),
	} {
		if err := inject.Send(4, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The undecodable flood woke every receive loop, and converged only
	// means nothing is pending: a loop still lingering would park — and
	// count it — between check's two readings. Let them all go back to sleep.
	if err := c.Settle(50*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(4).DecodeErrors(); got != 4 {
		t.Fatalf("switch 4 counted %d decode errors, want 4", got)
	}
	if sum := led.Summary(); sum.Dups != 0 || sum.Strays != 0 || uint64(sum.Delivered) != c.ForwardStats().Delivered {
		t.Fatalf("ledger %+v disagrees with ForwardStats %+v", sum, c.ForwardStats())
	}

	check := func(when string) {
		t.Helper()
		got := map[string]float64{}
		for _, p := range reg.Snapshot() {
			key := p.Name
			for _, l := range p.Labels {
				key += " " + l.Key + "=" + l.Value
			}
			got[key] = p.Value
		}
		for _, n := range c.Nodes() {
			sw := " switch=" + strconv.Itoa(int(n.ID()))
			s := n.ForwardStats()
			parks, lingerHits := n.RxWaits()
			for key, want := range map[string]uint64{
				"dgmc_rx_parks_total" + sw:                           parks,
				"dgmc_rx_linger_hits_total" + sw:                     lingerHits,
				"dgmc_data_frames_originated_total" + sw:             s.Originated,
				"dgmc_data_frames_forwarded_total" + sw:              s.Forwarded,
				"dgmc_data_delivered_total" + sw:                     s.Delivered,
				"dgmc_data_drops_total reason=no-entry" + sw:         s.DropNoEntry,
				"dgmc_data_drops_total reason=no-route" + sw:         s.DropNoRoute,
				"dgmc_data_drops_total reason=hop-budget" + sw:       s.DropHops,
				"dgmc_data_drops_total reason=loop" + sw:             s.DropLoop,
				"dgmc_fib_compiles_total" + sw:                       n.FIBCompiles(),
				"dgmc_frame_decode_errors_total" + sw:                n.DecodeErrors(),
				"dgmc_conn_data_delivered_total conn=1" + sw:         n.ConnForwardStats(conn).Delivered,
				"dgmc_conn_data_drops_total conn=1 reason=loop" + sw: n.ConnForwardStats(conn).DropLoop,
				"dgmc_rx_batches_total" + sw:                         n.batching.rxBatches.Load(),
				"dgmc_rx_frames_total" + sw:                          n.batching.rxFrames.Load(),
				"dgmc_tx_bursts_total" + sw:                          n.batching.txBursts.Load(),
				"dgmc_tx_frames_total" + sw:                          n.batching.txFrames.Load(),
			} {
				if v, ok := got[key]; !ok || v != float64(want) {
					t.Errorf("%s: series %q = %v (present=%v), accessor says %d", when, key, v, ok, want)
				}
			}
			// Every relayed link copy left in a burst, and a batch or burst
			// is never empty: the means /healthz reports start at 1.
			b, h := &n.batching, n.Health()
			if b.txFrames.Load() < s.Forwarded || h.RxFramesPerBatch < 1 || (b.txBursts.Load() > 0 && h.TxFramesPerBurst < 1) {
				t.Errorf("%s: switch %d flushed %d frames for %d forwarded; %.2f frames/batch, %.2f frames/burst",
					when, n.ID(), b.txFrames.Load(), s.Forwarded, h.RxFramesPerBatch, h.TxFramesPerBurst)
			}
			// A wait ends in one park or one linger hit, never both, and a
			// batch follows each — but for the park the idle loop is in now.
			if batches := b.rxBatches.Load(); parks == 0 || parks+lingerHits > batches+1 || h.RxParksPerBatch <= 0 {
				t.Errorf("%s: switch %d parked %d times and lingered into %d frames over %d batches (%.2f parks/batch)",
					when, n.ID(), parks, lingerHits, batches, h.RxParksPerBatch)
			}
		}
	}
	check("after blast")
	if s := c.Node(4).ForwardStats(); s.Delivered == 0 || s.DropNoEntry != 1 {
		t.Fatalf("switch 4 stats %+v: want deliveries and one no-entry drop", s)
	}

	// Crash and restart switch 4: its series must follow the new incarnation,
	// whose counters start from zero.
	if err := c.KillNode(4); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(4, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(4, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The senders share one packet budget and the fastest may take all of
	// it, so switch 4 only listens: whoever sends, it has something to deliver.
	blast(90, 0, 8)
	if s := c.Node(4).ForwardStats(); s.Delivered == 0 || s.DropNoEntry != 0 || c.Node(4).DecodeErrors() != 0 {
		t.Fatalf("restarted switch 4 stats %+v: want fresh counters with deliveries", s)
	}
	check("after restart")
}

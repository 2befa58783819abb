package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
)

// instrumentedNode boots the forward-test node with everything on: flight
// recorder, per-packet sampling (every packet — the worst case), and a live
// metrics registry.
func instrumentedNode(t *testing.T, dh DataHandler) (*Node, *stubTransport) {
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	return fwdNodeWith(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), dh,
		func(cfg *NodeConfig) {
			cfg.FlightRecords = 256
			cfg.SampleEvery = 1
			cfg.Registry = obs.NewRegistry()
		})
}

// TestHandleDataInstrumentedZeroAlloc is the tentpole's hard constraint from
// inside the package: the steady-state forward path — decode, FIB lookup,
// delivery, in-place patch, relay fan-out — stays at zero heap allocations
// per frame WITH the flight recorder recording every event, path sampling
// tracing every packet (SampleEvery=1), and the metrics registry live, on
// the same copy-then-move send calls as TestHandleDataZeroAlloc. The
// root-level TestAllocGateForwardInstrumented re-checks the same budget from
// outside the package.
func TestHandleDataInstrumentedZeroAlloc(t *testing.T) {
	var delivered atomic.Uint64
	n, st := instrumentedNode(t, func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
		delivered.Add(uint64(len(payload)))
	})

	if allocs := relayAllocs(t, n, st, 0); allocs != 0 {
		t.Fatalf("instrumented handleData allocates %.1f times per frame, budget is 0", allocs)
	}
	if delivered.Load() == 0 {
		t.Fatal("instrumented path did not deliver")
	}
	checkRelayed(t, n, st, 1, 3)
	// The recorder actually recorded: every frame wrote a deliver and a
	// forward event, and the sampled-hop ring (SampleEvery=1) kept pace.
	doc := n.FlightDoc()
	if doc.Written == 0 || len(doc.Events) == 0 {
		t.Fatalf("event ring empty after instrumented run: %+v", doc)
	}
	if len(doc.Hops) == 0 {
		t.Fatal("hop ring empty with SampleEvery=1")
	}
	// Forward records are written after the frame has moved away; they must
	// describe the packet, not whatever the buffer holds by then.
	for _, rec := range doc.Events {
		if rec.Kind == obs.RecForward && (rec.Conn != uint32(fwdConn) || rec.Src != 0 || rec.Seq != 7) {
			t.Fatalf("forward record %+v does not describe conn %d src 0 seq 7", rec, fwdConn)
		}
	}
}

// TestSendDataInstrumentedNoExtraAlloc pins origination at zero allocations
// per frame — the frame pool holds array pointers, so a rental round trip
// allocates nothing (see bufpool.go), and the stage set is borrowed — with
// or without the recorder, sampling, and registry.
func TestSendDataInstrumentedNoExtraAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame pool is lossy under the race detector")
	}
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	base, _ := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	inst, _ := instrumentedNode(t, nil)

	payload := make([]byte, 32)
	measure := func(n *Node) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := n.SendData(fwdConn, payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	if baseline := measure(base); baseline != 0 {
		t.Fatalf("uninstrumented SendData allocates %.1f/frame, budget is 0", baseline)
	}
	if instrumented := measure(inst); instrumented != 0 {
		t.Fatalf("instrumented SendData allocates %.1f/frame, budget is 0", instrumented)
	}
}

// TestFlightRecordsDataPlane drives each forward-path outcome and checks the
// rings: kinds land in the event ring, only sampled sequences reach the hop
// ring, and drops flip the anomaly flag that /healthz surfaces.
func TestFlightRecordsDataPlane(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, _ := fwdNodeWith(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil,
		func(cfg *NodeConfig) {
			cfg.FlightRecords = 64
			cfg.SampleEvery = 4
		})

	var rx oneFrame
	feed := func(buf []byte) { rx.relay(n, buf) }

	feed(dataBuf(fwdConn, 0, 0, 7, 8, nil))  // relayed+delivered, 7%4 != 0: not sampled
	feed(dataBuf(fwdConn, 0, 0, 8, 8, nil))  // relayed+delivered, sampled
	feed(dataBuf(fwdConn, 1, 0, 12, 8, nil)) // own frame looped back, sampled

	doc := n.FlightDoc()
	kinds := map[obs.RecKind]int{}
	for _, rec := range doc.Events {
		kinds[rec.Kind]++
	}
	if kinds[obs.RecDeliver] != 2 || kinds[obs.RecForward] != 2 || kinds[obs.RecDropLoop] != 1 {
		t.Fatalf("event ring kinds = %v, want 2 delivers, 2 forwards, 1 loop drop", kinds)
	}
	// FIB swap from boot-time compile is in the event ring too.
	if kinds[obs.RecFIBSwap] == 0 {
		t.Fatalf("no FIB-swap record in event ring: %v", kinds)
	}

	hopKinds := map[obs.RecKind]int{}
	for _, rec := range doc.Hops {
		if rec.Seq%4 != 0 {
			t.Fatalf("unsampled seq %d in hop ring", rec.Seq)
		}
		hopKinds[rec.Kind]++
	}
	if hopKinds[obs.RecDeliver] != 1 || hopKinds[obs.RecForward] != 1 || hopKinds[obs.RecDropLoop] != 1 {
		t.Fatalf("hop ring kinds = %v, want 1 deliver, 1 forward, 1 loop drop", hopKinds)
	}
	// The looped-back drop was decoded best-effort: its record carries the
	// real connection, so the reconstructor can join it to its path.
	for _, rec := range doc.Hops {
		if rec.Kind == obs.RecDropLoop && rec.Conn != uint32(fwdConn) {
			t.Fatalf("loop-drop record conn = %d, want %d", rec.Conn, fwdConn)
		}
	}

	h := n.Health()
	if h.Anomaly != obs.RecDropLoop.String() {
		t.Fatalf("health anomaly = %q, want %q", h.Anomaly, obs.RecDropLoop)
	}
	if h.AnomalyAgeMS < 0 {
		t.Fatalf("anomaly age = %d, want >= 0", h.AnomalyAgeMS)
	}
	if h.FlightWritten == 0 {
		t.Fatal("health reports zero flight records written")
	}
}

// TestForwardStatsRace is the striped-counter refactor's guard: ForwardStats
// and ConnForwardStats reads race live forwarding, origination, and FIB
// atomic swaps. Run under -race in the observability CI job; the final
// quiescent sums must balance exactly.
func TestForwardStatsRace(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, st := fwdNodeWith(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil,
		func(cfg *NodeConfig) {
			cfg.FlightRecords = 128
			cfg.SampleEvery = 8
		})

	// A second table (same shape) for the swapper; builders are cheap.
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	mkTable := func() *fib.Table {
		b := fib.NewBuilder(1, g)
		b.Add(fwdConn, mctree.Symmetric, members, fwdTree(mctree.Symmetric))
		return b.Build()
	}
	t1, t2 := mkTable(), mkTable()

	const packets = 4000
	var writersWG, auxWG sync.WaitGroup
	stop := make(chan struct{})

	writersWG.Add(1)
	go func() { // forwarder
		defer writersWG.Done()
		d := lsa.DataFrame{Conn: fwdConn, Src: 0, Hops: 8, Payload: make([]byte, 16)}
		var rx oneFrame
		for i := 0; i < packets; i++ {
			// The relay moves each frame into its last link: a buffer per pass.
			rx.relay(n, lsa.AppendDataFrame(st.rent(), &d, 0))
		}
	}()
	writersWG.Add(1)
	go func() { // originator
		defer writersWG.Done()
		payload := []byte("race")
		for i := 0; i < packets; i++ {
			if _, err := n.SendData(fwdConn, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	auxWG.Add(1)
	go func() { // FIB swapper
		defer auxWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				n.fib.Store(t1)
			} else {
				n.fib.Store(t2)
			}
		}
	}()
	auxWG.Add(1)
	go func() { // stats reader
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := n.ForwardStats()
			if s.Drops() != 0 {
				t.Errorf("unexpected drops under race: %+v", s)
				return
			}
			_ = n.ConnForwardStats(fwdConn)
			_ = n.Health()
		}
	}()

	// Wait for the two writers, then release the readers/swapper. done can
	// only fire after both writers' final increments, so a re-check after
	// it closes is authoritative.
	writers := make(chan struct{})
	go func() { writersWG.Wait(); close(writers) }()
	done := false
	for !done {
		select {
		case <-writers:
			done = true
		case <-time.After(time.Millisecond):
		}
		s := n.ForwardStats()
		if s.Originated == packets && s.Delivered == packets {
			break
		}
	}
	close(stop)
	<-writers
	auxWG.Wait()

	s := n.ForwardStats()
	if s.Originated != packets || s.Delivered != packets {
		t.Fatalf("stats lost updates: %+v, want %d originated and delivered", s, packets)
	}
	// Each relayed frame went to the two downstream tree neighbors, one by
	// copy and one by move; originated frames are copies on all three links.
	if want := 2*uint64(packets) + 3*uint64(packets); s.Forwarded != 2*packets || st.sends.Load()+st.moves.Load() != want {
		t.Fatalf("forwarding miscounted: stats=%+v sends=%d moves=%d", s, st.sends.Load(), st.moves.Load())
	}
	if cs := n.ConnForwardStats(fwdConn); cs.Delivered != packets {
		t.Fatalf("stripe stats lost updates: %+v", cs)
	}
}

// TestNodeHealthConverged checks the health surface on a live converged
// cluster: every member Converged, no gaps, FIB populated — and the flight
// recorder's FIB-swap records present.
func TestNodeHealthConverged(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		FlightRecords: 128, SampleEvery: 2,
	}, NewChanFabric(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	for _, sw := range []topo.SwitchID{0, 2} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		h := n.Health()
		if !h.Converged {
			t.Fatalf("switch %d not converged in health: %+v", n.ID(), h)
		}
		if h.Conns != 1 {
			t.Fatalf("switch %d conns = %d, want 1", n.ID(), h.Conns)
		}
		if len(h.GappedConns) != 0 || len(h.GiveUpConns) != 0 {
			t.Fatalf("switch %d has gaps in health: %+v", n.ID(), h)
		}
		if h.FIBEntries == 0 || h.FIBCompiles == 0 {
			t.Fatalf("switch %d FIB missing from health: %+v", n.ID(), h)
		}
		if !n.HealthyConn(conn) {
			t.Fatalf("switch %d HealthyConn = false after convergence", n.ID())
		}
		doc := n.FlightDoc()
		fibSwaps := 0
		for _, rec := range doc.Events {
			if rec.Kind == obs.RecFIBSwap {
				fibSwaps++
			}
		}
		if fibSwaps == 0 {
			t.Fatalf("switch %d recorded no FIB swaps: %d events", n.ID(), len(doc.Events))
		}
	}
}

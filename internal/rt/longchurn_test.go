package rt

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
)

// flap injects total alternating join/leave events for conn at switch sw,
// starting with a join (the switch must not be a member), checking every
// node's log depth after each 128.
func flap(t *testing.T, c *Cluster, sw topo.SwitchID, conn lsa.ConnID, total int) {
	t.Helper()
	for i := 0; i < total; i++ {
		var err error
		if i%2 == 0 {
			err = c.Join(sw, conn, mctree.SenderReceiver)
		} else {
			err = c.Leave(sw, conn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%128 == 127 {
			checkLogDepths(t, c)
		}
	}
}

// checkLogDepths fails if any live node's event log has reached the limit.
func checkLogDepths(t *testing.T, c *Cluster) {
	t.Helper()
	for _, n := range c.Nodes() {
		if n == nil {
			continue
		}
		if d := n.Health().EventLogDepth; d >= core.EventLogLimit {
			t.Fatalf("switch %d retains %d event LSAs, limit %d", n.ID(), d, core.EventLogLimit)
		}
	}
}

// TestLongChurnSoak is the live gate for the bounded log: one connection
// lives through four times the log's retention in events, then a switch
// crashes and restarts blank, then the fabric partitions while one side
// churns past what the other side's peers still hold. Every recovery has to
// come from catch-ups — the events are gone — and has to end in the same
// network-wide agreement the full replay used to produce, with the
// restarted switch's own counter back before it originates again and no
// log ever reaching its limit.
func TestLongChurnSoak(t *testing.T) {
	const rows, cols = 2, 4
	g, err := topo.Grid(rows, cols, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c, err := NewCluster(ClusterConfig{Graph: g, ResyncTimeout: resyncFast, Registry: reg}, NewChanFabric(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const conn = lsa.ConnID(1)
	const flapper = topo.SwitchID(5)
	retain := core.EventLogRetain
	for _, sw := range []topo.SwitchID{0, 3} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	flap(t, c, flapper, conn, 4*retain+1) // odd: ends joined
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkLogDepths(t, c)
	before, _ := c.Node(0).Connection(conn)
	if _, member := before.Members[flapper]; !member || int(before.R[flapper]) <= 4*retain {
		t.Fatalf("churn phase ended with R[%d]=%d, member=%v", flapper, before.R[flapper], member)
	}

	// (a) Crash the churner, let the network move on, restart it blank.
	if err := c.KillNode(flapper); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(6, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(flapper, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	re := c.Node(flapper)
	got, _ := re.Connection(conn)
	if got.R[flapper] != before.R[flapper] {
		t.Fatalf("restarted switch recovered own counter %d, network holds %d", got.R[flapper], before.R[flapper])
	}
	if h := re.Health(); h.CatchUpsApplied == 0 || h.EventLogDepth >= core.EventLogLimit {
		t.Fatalf("restarted switch: %d catch-ups applied, log depth %d — a rejoin this far past retention cannot have been a replay",
			h.CatchUpsApplied, h.EventLogDepth)
	}
	// Its next event must carry the next index, or the network drops it as
	// stale.
	if err := c.Leave(flapper, conn); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		snap, _ := n.Connection(conn)
		if _, still := snap.Members[flapper]; still || snap.R[flapper] != before.R[flapper]+1 {
			t.Fatalf("switch %d: restarted switch's leave not applied (R[%d]=%d)", n.ID(), flapper, snap.R[flapper])
		}
	}

	// (b) Partition; the left side churns more than anyone retains, the
	// right side moves too; heal.
	if err := c.Partition(gridGroups(rows, cols, 2)); err != nil { // {0,1,4,5} | {2,3,6,7}
		t.Fatal(err)
	}
	flap(t, c, 1, conn, 2*retain+65) // odd: ends joined
	if err := c.Join(7, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(50*time.Millisecond, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	checkLogDepths(t, c)
	final, _ := c.Node(3).Connection(conn)
	for _, sw := range []topo.SwitchID{0, 1, 3, 6, 7} {
		if _, ok := final.Members[sw]; !ok {
			t.Fatalf("member %d missing after heal: %v", sw, final.Members)
		}
	}
	if len(final.Members) != 5 {
		t.Fatalf("members after heal: %v", final.Members)
	}
	var fastForwarded uint64
	for _, sw := range []topo.SwitchID{2, 3, 6, 7} {
		fastForwarded += c.Node(sw).Health().CatchUpsApplied
	}
	if fastForwarded == 0 {
		t.Fatal("no right-side switch applied a catch-up across a heal that outran every log")
	}

	// An operator sees the same from a scrape: depth per switch, catch-ups
	// served by the peers that had trimmed, catch-ups applied by the live
	// incarnation of the switch that restarted.
	scraped := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if len(p.Labels) == 1 && p.Labels[0].Key == "switch" {
			scraped[p.Name+"/"+p.Labels[0].Value] = p.Value
		}
	}
	var served float64
	for _, n := range c.Nodes() {
		sw := strconv.Itoa(int(n.ID()))
		h := n.Health()
		if got, want := scraped["dgmc_event_log_depth/"+sw], float64(h.EventLogDepth); got != want || want == 0 {
			t.Fatalf("switch %s: scraped log depth %v, health says %v", sw, got, want)
		}
		if got, want := scraped["dgmc_event_log_bytes/"+sw], float64(h.EventLogBytes); got != want || h.EventLogBytes < h.EventLogDepth {
			t.Fatalf("switch %s: scraped log bytes %v, health says %v for %d entries", sw, got, want, h.EventLogDepth)
		}
		served += scraped["dgmc_machine_catchups_served_total/"+sw]
	}
	if served == 0 || scraped["dgmc_machine_catchups_applied_total/5"] != float64(re.Health().CatchUpsApplied) {
		t.Fatalf("scrape: %v catch-ups served cluster-wide, %v applied at the restarted switch (health: %d)",
			served, scraped["dgmc_machine_catchups_applied_total/5"], re.Health().CatchUpsApplied)
	}
}

// frameSizes is a Transport that records every frame's size and keeps the
// resync-response frames for decoding.
type frameSizes struct {
	*stubTransport
	mu        sync.Mutex
	largest   int
	responses [][]byte
}

func (f *frameSizes) Send(to topo.SwitchID, data []byte) error {
	f.mu.Lock()
	if len(data) > f.largest {
		f.largest = len(data)
	}
	if kind, _, _, _, ok := lsa.PeekFrameMeta(data); ok && kind == lsa.FrameResyncResp {
		f.responses = append(f.responses, append([]byte(nil), data...))
	}
	f.mu.Unlock()
	return f.stubTransport.Send(to, data)
}

// TestResyncResponseFramesBounded: at the paper's scale (n = 100, where one
// proposal-carrying event LSA encodes to ≈ 0.5 kB) a switch holding a full
// retained log answers the most a request can ask of it — everything down
// to the floor — in frames that all fit the limit, carrying the suffix in
// order and the pseudo-proposal last. As one datagram that answer is
// ≈ 0.5 MB and UDP refuses it. A blank requester, below every floor, costs
// one catch-up per origin and the pseudo-proposal: one small frame.
func TestResyncResponseFramesBounded(t *testing.T) {
	const n = 100
	g, err := topo.Ring(n, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tr := &frameSizes{stubTransport: newStubTransport()}
	node, err := NewNode(NodeConfig{ID: 0, Graph: g}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const conn = lsa.ConnID(1)
	limit := core.EventLogLimit
	// Two remote members keep a real tree in every proposal; then local
	// events until the log has been trimmed and sits one short of the next
	// trim, every retained entry the switch's own.
	node.step(1, func(m *core.Machine) {
		for _, src := range []topo.SwitchID{30, 60} {
			st := make([]uint32, n)
			st[src] = 1
			m.ReceiveBatch(nil, []any{&lsa.MC{Src: src, Event: lsa.Join, Role: mctree.SenderReceiver, Conn: conn, Stamp: st}})
		}
		for i := 0; m.EventLogDepth() != limit-1 || i < limit; i++ {
			ev := core.LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver}
			if i%2 == 1 {
				ev = core.LocalEvent{Conn: conn, Kind: lsa.Leave}
			}
			m.HandleLocalEvent(nil, ev)
		}
	})
	answer := func(req *lsa.ResyncRequest) (batch []*lsa.MC, frames, bytes int) {
		tr.mu.Lock()
		tr.responses, tr.largest = nil, 0
		tr.mu.Unlock()
		node.step(1, func(m *core.Machine) { m.ReceiveBatch(nil, []any{req}) })
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if tr.largest > maxResyncFrame {
			t.Fatalf("largest frame %d bytes, limit %d", tr.largest, maxResyncFrame)
		}
		for i, raw := range tr.responses {
			f, err := lsa.DecodeFrame(raw)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			part, err := lsa.DecodeResyncResponse(f.Payload)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			batch = append(batch, part.Batch...)
			bytes += len(raw)
		}
		return batch, len(tr.responses), bytes
	}

	// A requester exactly at the floor of every origin: the whole suffix.
	snap, _ := node.Connection(conn)
	atFloor := make([]uint32, n)
	atFloor[0], atFloor[30], atFloor[60] = snap.R[0]-uint32(limit-1), 1, 1
	batch, frames, bytes := answer(&lsa.ResyncRequest{Conn: conn, From: 1, R: atFloor})
	if frames < 2 || bytes <= 65507 {
		t.Fatalf("%d frames, %d bytes: the answer would have fit one datagram and the test shows nothing", frames, bytes)
	}
	if len(batch) != limit {
		t.Fatalf("reassembled %d LSAs, want the %d retained and the pseudo-proposal", len(batch), limit-1)
	}
	for i, mc := range batch[:limit-1] {
		if mc.Src != 0 || !mc.Event.IsEvent() || mc.Event == lsa.CatchUp || mc.Stamp[0] != atFloor[0]+uint32(i)+1 {
			t.Fatalf("LSA %d out of place: %s", i, mc)
		}
	}
	if last := batch[limit-1]; last.Event != lsa.None || last.Proposal == nil {
		t.Fatalf("batch ends with %s, want the pseudo-proposal", last)
	}
	t.Logf("at the floor: %d LSAs in %d frames, %d bytes", len(batch), frames, bytes)

	// A blank requester: three origins, three catch-ups.
	batch, frames, bytes = answer(&lsa.ResyncRequest{Conn: lsa.AllConns, From: 1})
	if frames != 1 || len(batch) != 4 {
		t.Fatalf("cold rejoin answered with %d LSAs in %d frames", len(batch), frames)
	}
	for i, mc := range batch[:3] {
		if mc.Event != lsa.CatchUp || mc.Src != []topo.SwitchID{0, 30, 60}[i] {
			t.Fatalf("LSA %d = %s, want a catch-up", i, mc)
		}
	}
	t.Logf("cold rejoin: %d LSAs in %d frame, %d bytes", len(batch), frames, bytes)
}

// TestUDPColdRejoinAfterLongChurn restarts a switch into a UDP fabric whose
// connection saw 2 000 events while it was down. Its neighbors' answer to
// the cold rejoin must reach it: before the log was bounded and responses
// framed, that answer was one ≈ 300 kB datagram, the send failed with
// "message too long", and the only trace was a send-error counter.
func TestUDPColdRejoinAfterLongChurn(t *testing.T) {
	const n = 4
	g, err := topo.Ring(n, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewUDPFabric(n)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	addrs := map[topo.SwitchID]string{}
	for i := 0; i < n; i++ {
		addrs[topo.SwitchID(i)] = fab.Transport(topo.SwitchID(i)).(*UDPTransport).LocalAddr().String()
	}
	// Switch 3 is down for the whole churn phase: its socket is closed, so
	// nothing queues up for it.
	fab.Transport(3).Close()
	boot := func(id topo.SwitchID, epoch uint64, tr Transport) *Node {
		node, err := NewNode(NodeConfig{ID: id, Graph: g, ResyncTimeout: 100 * time.Millisecond, Epoch: epoch}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	nodes := []*Node{boot(0, 0, fab.Transport(0)), boot(1, 0, fab.Transport(1)), boot(2, 0, fab.Transport(2))}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	const conn = lsa.ConnID(1)
	const events = 2000
	if err := nodes[1].Join(conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < events; k++ {
		var err error
		if k%2 == 1 {
			err = nodes[0].Join(conn, mctree.SenderReceiver)
		} else {
			err = nodes[0].Leave(conn)
		}
		if err != nil {
			t.Fatal(err)
		}
		// One event in flight at a time: a burst would overrun the socket
		// buffers and turn the churn phase into a resync soak.
		waitFor("event to reach every running switch", func() bool {
			for _, node := range nodes {
				if snap, ok := node.Connection(conn); !ok || int(snap.R[0]) != k {
					return false
				}
			}
			return true
		})
	}
	waitFor("running switches to commit", func() bool {
		for _, node := range nodes {
			if !node.HealthyConn(conn) {
				return false
			}
		}
		return true
	})
	want, _ := nodes[1].Connection(conn)

	tr, err := NewUDPTransport(addrs[3], addrs)
	if err != nil {
		t.Fatal(err)
	}
	late := boot(3, 1, tr)
	late.RejoinFromNeighbors()
	waitFor("restarted switch to catch up", func() bool {
		snap, ok := late.Connection(conn)
		return ok && late.HealthyConn(conn) && snap.R.Equal(want.R) && snap.C.Equal(want.C)
	})
	got, _ := late.Connection(conn)
	if !got.Members.Equal(want.Members) || !got.Topology.Equal(want.Topology) {
		t.Fatalf("restarted switch rebuilt members %v topology %v, want %v %v", got.Members, got.Topology, want.Members, want.Topology)
	}
}

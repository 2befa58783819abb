package rt

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// poison is what stubTransport overwrites a moved buffer with. No frame
// starts with it (the first byte is the frame version).
const poison = 0xDB

// stubTransport implements the whole Transport contract, so white-box tests
// drive the same send calls a ChanFabric port sees in production. It counts
// copies and moves apart — in a burst, a frame the test fed the node (rent,
// RecvBatch) is that frame moved on, anything else a copy the node made —
// and it really does own what it is handed: a moved buffer is overwritten
// with poison and parked on a free list, so anything that reads or re-sends
// a buffer after moving it trips the poisoned counter or a later assertion
// instead of passing silently; a copy goes back to the frame pool. RecvBatch
// blocks until a test injects a frame or the stub closes, so a node's
// goroutine cluster idles unless fed.
type stubTransport struct {
	sends, moves, released, poisoned atomic.Uint64
	lastMove                         atomic.Int64 // destination of the latest move

	mu   sync.Mutex
	free [][]byte       // moved buffers, poisoned, waiting for rent
	fed  map[*byte]bool // by first byte: buffers the test handed the node

	in     chan []byte
	closed chan struct{}
	once   sync.Once

	// onRelease, when set, runs at the start of every Release.
	onRelease func()
}

func newStubTransport() *stubTransport {
	return &stubTransport{in: make(chan []byte), closed: make(chan struct{}), fed: map[*byte]bool{}}
}

// feed marks buf as a frame the node is about to be handed.
func (s *stubTransport) feed(buf []byte) []byte {
	s.mu.Lock()
	s.fed[&buf[:1][0]] = true
	s.mu.Unlock()
	return buf
}

func (s *stubTransport) note(data []byte) {
	if len(data) > 0 && data[0] == poison {
		s.poisoned.Add(1)
	}
}

func (s *stubTransport) Send(_ topo.SwitchID, data []byte) error {
	s.note(data)
	s.sends.Add(1)
	return nil
}

// move takes one frame fed by feed: poisons it and keeps it for reuse.
func (s *stubTransport) move(to topo.SwitchID, buf []byte) {
	s.note(buf)
	for i := range buf {
		buf[i] = poison
	}
	s.mu.Lock()
	s.free = append(s.free, buf)
	s.mu.Unlock()
	s.lastMove.Store(int64(to))
	s.moves.Add(1)
}

func (s *stubTransport) SendOwnedBatch(to topo.SwitchID, bufs [][]byte) error {
	for _, buf := range bufs {
		s.mu.Lock()
		moved := s.fed[&buf[:1][0]]
		s.mu.Unlock()
		if moved {
			s.move(to, buf)
			continue
		}
		s.note(buf)
		s.sends.Add(1)
		putBuf(buf)
	}
	return nil
}

// rent returns an empty buffer to encode a frame for the node into: one a
// move gave up, if there is one, so a steady send-move-rent cycle allocates
// nothing.
func (s *stubTransport) rent() []byte {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return buf[:0]
	}
	s.mu.Unlock()
	return s.feed(make([]byte, 0, 256))
}

// stillPoisoned reports whether every parked buffer is untouched since its
// move — nobody kept writing through a stale alias.
func (s *stubTransport) stillPoisoned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, buf := range s.free {
		for _, b := range buf {
			if b != poison {
				return false
			}
		}
	}
	return true
}

func (s *stubTransport) Recv() ([]byte, error) {
	select {
	case buf := <-s.in:
		return s.feed(buf), nil
	case <-s.closed:
		return nil, ErrClosed
	}
}

func (s *stubTransport) RecvBatch(recycle [][]byte) ([][]byte, error) {
	buf, err := s.Recv()
	if err != nil {
		return nil, err
	}
	return append(recycle[:0], buf), nil
}

func (s *stubTransport) Release(n int) {
	if s.onRelease != nil {
		s.onRelease()
	}
	s.released.Add(uint64(n))
}

func (s *stubTransport) RxWaits() (parks, lingerHits, yields uint64) { return 0, 0, 0 }

func (s *stubTransport) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

const fwdConn = lsa.ConnID(1)

// fwdNode boots switch id of a 6-switch line over a stub transport and
// installs a hand-built FIB so the forward path is exercised in isolation
// from the control plane.
func fwdNode(t *testing.T, id topo.SwitchID, kind mctree.Kind, members mctree.Members, tr *mctree.Tree, dh DataHandler) (*Node, *stubTransport) {
	return fwdNodeWith(t, id, kind, members, tr, dh, nil)
}

// fwdNodeWith is fwdNode with a NodeConfig hook (recorder, sampling,
// registry) applied before boot.
func fwdNodeWith(t *testing.T, id topo.SwitchID, kind mctree.Kind, members mctree.Members, tr *mctree.Tree, dh DataHandler, mutate func(*NodeConfig)) (*Node, *stubTransport) {
	t.Helper()
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	st := newStubTransport()
	cfg := NodeConfig{ID: id, Graph: g, DataHandler: dh}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	b := fib.NewBuilder(id, g)
	b.Add(fwdConn, kind, members, tr)
	n.fib.Store(b.Build())
	return n, st
}

// fwdTree is a star around switch 1 — 0, 2 and 3 hang off it — so a frame
// relayed at switch 1 leaves on two links: one copy, one move.
func fwdTree(kind mctree.Kind) *mctree.Tree {
	tr := mctree.New(kind)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 2)
	tr.AddEdge(1, 3)
	return tr
}

// dataBuf encodes one payload frame as it would arrive from switch `from`.
func dataBuf(conn lsa.ConnID, src, from topo.SwitchID, seq uint64, hops uint8, payload []byte) []byte {
	d := lsa.DataFrame{Conn: conn, Src: src, Seq: seq, Hops: hops, Payload: payload}
	return lsa.AppendDataFrame(nil, &d, from)
}

// oneFrame feeds a node frames the way its receive loop would, as batches of
// one: handle the frame, flush the stages, step the machine, settle. It
// stands in for the loop's goroutine, so it owns an rxState like the loop
// does.
type oneFrame struct {
	rx    rxState
	batch [1][]byte
}

func (r *oneFrame) relay(n *Node, buf []byte) {
	r.batch[0] = buf
	n.handleBatch(&r.rx, r.batch[:])
}

// relayAllocs measures the steady-state relay at n — frame decode, FIB
// lookup, local delivery, in-place patch, fan-out, burst flush, settle — in
// heap allocations per frame arriving from switch from. The relay moves each
// frame into its last link (checkRelayed counts the moves), so every pass
// encodes into a buffer of its own: the one the stub took over on the
// previous pass, poisoned in between.
func relayAllocs(t *testing.T, n *Node, st *stubTransport, from topo.SwitchID) float64 {
	t.Helper()
	d := lsa.DataFrame{Conn: fwdConn, Src: 0, Seq: 7, Hops: 8, Payload: make([]byte, 32)}
	var rx oneFrame
	return testing.AllocsPerRun(200, func() {
		rx.relay(n, lsa.AppendDataFrame(st.rent(), &d, from))
	})
}

// checkRelayed asserts the relay accounting after relayAllocs: every accepted
// link send was counted once, each frame took copies copies plus one move to
// lastLink, and nothing touched a buffer after moving it.
func checkRelayed(t *testing.T, n *Node, st *stubTransport, copies uint64, lastLink topo.SwitchID) {
	t.Helper()
	s := n.ForwardStats()
	sends, moves := st.sends.Load(), st.moves.Load()
	if moves == 0 || s.Forwarded != sends+moves {
		t.Fatalf("relay accounting wrong: forwarded=%d, transport saw %d copies + %d moves", s.Forwarded, sends, moves)
	}
	if sends != copies*moves || topo.SwitchID(st.lastMove.Load()) != lastLink {
		t.Fatalf("%d copies and %d moves (last to switch %d), want %d copies per move to switch %d",
			sends, moves, st.lastMove.Load(), copies, lastLink)
	}
	if st.poisoned.Load() != 0 || !st.stillPoisoned() {
		t.Fatal("a frame buffer was used after it moved into the transport")
	}
	if s.Drops() != 0 {
		t.Fatalf("unexpected drops: %+v", s)
	}
}

// TestHandleDataZeroAlloc pins the steady-state forward path at zero heap
// allocations per frame, on the send calls production makes: a tree relay
// copies to every link but the last and moves the frame into the last, a
// contact hop is a single move. The root-level alloc gate re-checks the same
// budget from outside the package; this one runs on the real Node.
func TestHandleDataZeroAlloc(t *testing.T) {
	var delivered atomic.Uint64
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, st := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric),
		func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			delivered.Add(uint64(len(payload)))
		})
	if allocs := relayAllocs(t, n, st, 0); allocs != 0 {
		t.Fatalf("handleData allocates %.1f times per frame, budget is 0", allocs)
	}
	if n.ForwardStats().Delivered == 0 || delivered.Load() == 0 {
		t.Fatal("member switch never delivered to its application")
	}
	checkRelayed(t, n, st, 1, 3)

	// Off-tree switch 4 of a receiver-only MC relays toward its contact.
	ro := mctree.Members{0: mctree.Receiver, 2: mctree.Receiver}
	n4, st4 := fwdNode(t, 4, mctree.ReceiverOnly, ro, fwdTree(mctree.ReceiverOnly), nil)
	if allocs := relayAllocs(t, n4, st4, 5); allocs != 0 {
		t.Fatalf("contact relay allocates %.1f times per frame, budget is 0", allocs)
	}
	checkRelayed(t, n4, st4, 0, 3)
}

// TestRecvLoopSettlesAndMoves feeds one frame through the stub's receive
// side, so the node's own recvLoop runs the production sequence: handle the
// frame, flush its copy and its move as bursts, leave the moved buffer
// alone, settle with Release.
func TestRecvLoopSettlesAndMoves(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, st := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	st.in <- dataBuf(fwdConn, 0, 0, 1, 8, []byte("payload"))
	st.in <- []byte("not a frame")
	for deadline := time.Now().Add(10 * time.Second); st.released.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("recvLoop settled %d of 2 frames", st.released.Load())
		}
		time.Sleep(time.Millisecond)
	}
	checkRelayed(t, n, st, 1, 3)
	if n.DecodeErrors() != 1 {
		t.Fatalf("decode errors = %d, want 1", n.DecodeErrors())
	}
}

// TestReceivedBatchAppliedBeforeRelease pins the receive contract: one
// handleBatch call relays a neighbour's join, runs ReceiveLSA on it and only
// then settles the frame, so the member is listed by the time the transport
// sees Release. A DataHandler, which runs on the same goroutine but outside
// the machine lock, may Join and Leave without deadlocking it. And a
// cluster runs one goroutine per switch: the 4×4 grid adds 16.
func TestReceivedBatchAppliedBeforeRelease(t *testing.T) {
	const joinConn, appConn = lsa.ConnID(5), lsa.ConnID(6)
	var n *Node
	var handled int
	var handlerErr error
	dh := func(lsa.ConnID, topo.SwitchID, uint64, []byte) {
		if handled++; handled == 1 {
			handlerErr = n.Join(appConn, mctree.Receiver)
		} else {
			handlerErr = n.Leave(appConn)
		}
	}
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, st := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), dh)
	listed := func(conn lsa.ConnID, sw topo.SwitchID) bool {
		snap, _ := n.Connection(conn)
		_, ok := snap.Members[sw]
		return ok
	}
	var atRelease []bool
	st.onRelease = func() { atRelease = append(atRelease, listed(joinConn, 0)) }

	join := &lsa.MC{Src: 0, Event: lsa.Join, Conn: joinConn, Role: mctree.SenderReceiver,
		Proposal: mctree.New(mctree.Symmetric), Stamp: stamp.Stamp{1, 0, 0, 0, 0, 0}}
	var rx oneFrame
	rx.relay(n, st.feed(lsa.EncodeFrame(&lsa.Frame{
		Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 0, From: 0, Seq: 1, Payload: join.Marshal(),
	})))
	if len(atRelease) != 1 || !atRelease[0] {
		t.Fatalf("member listed at each Release: %v, want [true]", atRelease)
	}
	if !listed(joinConn, 0) || st.released.Load() != 1 || n.ctl.floodsFwd.Load() != 1 {
		t.Fatalf("after the batch: member listed %v, %d frames released, %d relayed; want true, 1, 1",
			listed(joinConn, 0), st.released.Load(), n.ctl.floodsFwd.Load())
	}

	st.onRelease = nil
	// Each payload's delivery toggles this switch's membership of appConn.
	for seq, want := range []bool{true, false} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			rx.relay(n, st.feed(dataBuf(fwdConn, 0, 0, uint64(seq+1), 8, []byte("payload"))))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a DataHandler calling Join or Leave deadlocked the receive path")
		}
		if handlerErr != nil || handled != seq+1 || listed(appConn, 1) != want {
			t.Fatalf("delivery %d: handler ran %d times (err %v), member listed %v, want %v",
				seq+1, handled, handlerErr, listed(appConn, 1), want)
		}
	}

	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	base := stableGoroutines()
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine() - base; got != g.NumSwitches() {
		t.Errorf("NewCluster on the 4×4 grid added %d goroutines, want %d", got, g.NumSwitches())
	}
	c.Close()
	if got := stableGoroutines(); got != base {
		t.Errorf("%d goroutines after Close, %d before NewCluster", got, base)
	}
}

// stableGoroutines returns the goroutine count once it has held still for
// 20 ms (or after a second), so goroutines an earlier test left exiting do
// not count.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline, still := time.Now().Add(time.Second), time.Now(); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		} else if time.Since(still) >= 20*time.Millisecond {
			break
		}
	}
	return n
}

// TestHandleDataDropTaxonomy walks each drop reason through the real path.
func TestHandleDataDropTaxonomy(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, _ := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)

	var rx oneFrame
	feed := func(buf []byte) { rx.relay(n, buf) }

	feed(dataBuf(fwdConn, 1, 0, 1, 8, nil)) // own frame looped back
	if s := n.ForwardStats(); s.DropLoop != 1 {
		t.Fatalf("loop drop not counted: %+v", s)
	}
	feed(dataBuf(lsa.ConnID(99), 0, 0, 1, 8, nil)) // no FIB entry
	if s := n.ForwardStats(); s.DropNoEntry != 1 {
		t.Fatalf("no-entry drop not counted: %+v", s)
	}
	feed(dataBuf(fwdConn, 0, 0, 2, 0, nil)) // hop budget exhausted mid-tree
	if s := n.ForwardStats(); s.DropHops != 1 {
		t.Fatalf("hop-budget drop not counted: %+v", s)
	}

	// Off-tree switch of a symmetric MC: no fan-out, no contact route.
	n4, _ := fwdNode(t, 4, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	rx.relay(n4, dataBuf(fwdConn, 0, 3, 3, 8, nil))
	if s := n4.ForwardStats(); s.DropNoRoute != 1 {
		t.Fatalf("no-route drop not counted: %+v", s)
	}

	// A leaf member whose only tree neighbor sent the frame terminates
	// normally — that is delivery, not a drop, even with zero hops left.
	n0, _ := fwdNode(t, 0, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	rx.relay(n0, dataBuf(fwdConn, 2, 1, 4, 0, nil))
	if s := n0.ForwardStats(); s.Delivered != 1 || s.Drops() != 0 {
		t.Fatalf("leaf termination misclassified: %+v", s)
	}
}

// TestSendDataRules checks origination policy: send entitlement per MC kind,
// contact-route origination from off-tree switches, and the closed-node path.
func TestSendDataRules(t *testing.T) {
	asym := mctree.Members{0: mctree.Sender, 2: mctree.Receiver}

	// A receiver of an asymmetric MC may not originate.
	n2, _ := fwdNode(t, 2, mctree.Asymmetric, asym, fwdTree(mctree.Asymmetric), nil)
	if _, err := n2.SendData(fwdConn, []byte("x")); err != ErrNotSender {
		t.Fatalf("receiver SendData = %v, want ErrNotSender", err)
	}
	if _, err := n2.SendData(lsa.ConnID(99), []byte("x")); err != ErrNoRoute {
		t.Fatalf("unknown conn SendData = %v, want ErrNoRoute", err)
	}

	// The registered sender fans out over the tree (one neighbor at a leaf).
	n0, st0 := fwdNode(t, 0, mctree.Asymmetric, asym, fwdTree(mctree.Asymmetric), nil)
	seq1, err := n0.SendData(fwdConn, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := n0.SendData(fwdConn, []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("data seq not increasing: %d then %d", seq1, seq2)
	}
	if st0.sends.Load() != 2 {
		t.Fatalf("leaf origination sent %d frames, want 2", st0.sends.Load())
	}
	if s := n0.ForwardStats(); s.Originated != 2 {
		t.Fatalf("originated = %d, want 2", s.Originated)
	}

	// An off-tree switch of a receiver-only MC originates toward its contact.
	ro := mctree.Members{0: mctree.Receiver, 2: mctree.Receiver}
	n5, st5 := fwdNode(t, 5, mctree.ReceiverOnly, ro, fwdTree(mctree.ReceiverOnly), nil)
	if _, err := n5.SendData(fwdConn, []byte("via contact")); err != nil {
		t.Fatal(err)
	}
	if st5.sends.Load() != 1 {
		t.Fatalf("contact origination sent %d frames, want 1", st5.sends.Load())
	}

	n5.Close()
	if _, err := n5.SendData(fwdConn, []byte("late")); err != ErrClosed {
		t.Fatalf("SendData after Close = %v, want ErrClosed", err)
	}
}

// TestFIBTracksControlPlane runs a real 3-switch cluster and requires the
// atomic tables to follow joins and leaves: entries appear on install,
// update on membership change, and the data path delivers end to end.
func TestFIBTracksControlPlane(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	type rx struct {
		at, src topo.SwitchID
		payload string
	}
	var mu sync.Mutex
	var got []rx
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		DataHandler: func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			mu.Lock()
			got = append(got, rx{at, src, string(payload)})
			mu.Unlock()
		},
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
		if n.FIB().Lookup(conn) == nil {
			t.Fatalf("switch %d has no FIB entry after install", n.ID())
		}
		if n.FIBCompiles() == 0 {
			t.Fatalf("switch %d never recompiled its FIB", n.ID())
		}
	}

	if _, err := c.SendData(0, conn, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(50*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(got)
	ok := n == 1 && got[0] == rx{2, 0, "ping"}
	mu.Unlock()
	if !ok {
		t.Fatalf("delivery = %v, want exactly one at switch 2 from 0", got)
	}

	// After the only other member leaves, the sender's table must refuse
	// origination into the now-memberless group.
	if err := c.Leave(2, conn); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	e := c.Node(0).FIB().Lookup(conn)
	if e == nil || len(e.Neighbors) != 0 {
		t.Fatalf("sender entry after leave = %+v, want memberless self-entry", e)
	}
}

// TestIncrementalFIBMatchesFullRebuild: a table that carried over the
// entries of untouched connections is, at every quiescent point, the table
// a compile from scratch gives — across installs and withdrawals on three
// connections of three kinds (a receiver-only MC's contact routes included),
// a partition and heal served by resync replays, and a cold rejoin.
func TestIncrementalFIBMatchesFullRebuild(t *testing.T) {
	g, err := topo.Grid(2, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		Kinds: map[lsa.ConnID]mctree.Kind{2: mctree.ReceiverOnly, 3: mctree.Asymmetric},
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(when string) {
		t.Helper()
		if err := c.WaitConverged(30 * time.Second); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, n := range c.Nodes() {
			n.mu.Lock()
			b := fib.NewBuilder(n.id, n.machine.Unicast().Image())
			n.machine.ForwardingState(b.Add)
			want, got := b.Build(), n.fib.Load()
			n.mu.Unlock()
			if !reflect.DeepEqual(got.Conns(), want.Conns()) {
				t.Fatalf("%s: switch %d serves %v, a full rebuild %v", when, n.id, got.Conns(), want.Conns())
			}
			for _, conn := range want.Conns() {
				if g, w := got.Lookup(conn), want.Lookup(conn); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: switch %d conn %d\n  serves %+v\n rebuilt %+v", when, n.id, conn, g, w)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(23))
	roles := map[int]mctree.Role{1: mctree.SenderReceiver, 2: mctree.Receiver, 3: mctree.SenderReceiver}
	joined := map[[2]int]bool{}
	churn := func(events int, checked bool) {
		t.Helper()
		for i := 0; i < events; i++ {
			sw, conn := rng.Intn(g.NumSwitches()), 1+rng.Intn(3)
			var err error
			if k := [2]int{sw, conn}; joined[k] {
				err = c.Leave(topo.SwitchID(sw), lsa.ConnID(conn))
				delete(joined, k)
			} else {
				err = c.Join(topo.SwitchID(sw), lsa.ConnID(conn), roles[conn])
				joined[k] = true
			}
			if err != nil {
				t.Fatal(err)
			}
			if checked && i%4 == 3 {
				check(fmt.Sprintf("after event %d", i))
			}
		}
	}
	churn(40, true)

	if err := c.Partition(gridGroups(2, 4, 2)); err != nil {
		t.Fatal(err)
	}
	churn(8, false) // the sides cannot agree until the heal
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	check("after the heal")

	if err := c.KillNode(5); err != nil {
		t.Fatal(err)
	}
	for conn := 1; conn <= 3; conn++ {
		delete(joined, [2]int{5, conn}) // its memberships died with it, as far as it knows
	}
	if err := c.RestartNode(5, nil); err != nil {
		t.Fatal(err)
	}
	check("after the cold rejoin")
	churn(12, true)
}

// TestFIBKeepsTableWhenEntryUnchanged: on a five-switch line, an install
// that leaves a switch's entry as it was keeps that switch's table — the
// same pointer, one compile more, no swap — while an install that changes
// the entry swaps, and so does one that only moves an off-tree switch's
// contact route on a receiver-only connection.
func TestFIBKeepsTableWhenEntryUnchanged(t *testing.T) {
	g, err := topo.Line(5, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, Kinds: map[lsa.ConnID]mctree.Kind{2: mctree.ReceiverOnly},
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	far := c.Nodes()[4]
	// install runs one join to completion and reports what it did to the
	// far switch's table.
	install := func(sw topo.SwitchID, conn lsa.ConnID, role mctree.Role) (kept bool, compiles, swaps uint64) {
		t.Helper()
		tbl, c0, s0 := far.FIB(), far.FIBCompiles(), far.FIBSwaps()
		if err := c.Join(sw, conn, role); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitConverged(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return far.FIB() == tbl, far.FIBCompiles() - c0, far.FIBSwaps() - s0
	}

	install(0, 1, mctree.SenderReceiver)
	install(1, 1, mctree.SenderReceiver)
	// Switch 2 joining grows the tree to 0-1-2: switch 4 stays off it.
	if kept, compiles, swaps := install(2, 1, mctree.SenderReceiver); !kept || compiles != 1 || swaps != 0 {
		t.Fatalf("unchanged entry: kept %v, %d compiles, %d swaps; want kept, 1, 0", kept, compiles, swaps)
	}
	// Switch 4 joining puts it on the tree: its entry changes.
	if kept, compiles, swaps := install(4, 1, mctree.SenderReceiver); kept || compiles != 1 || swaps != 1 {
		t.Fatalf("changed entry: kept %v, %d compiles, %d swaps; want swapped, 1, 1", kept, compiles, swaps)
	}
	if e := far.FIB().Lookup(1); e == nil || !slices.Equal(e.Neighbors, []topo.SwitchID{3}) {
		t.Fatalf("switch 4 serves %+v after its join, want fan-out to 3", e)
	}

	// Receiver-only: switch 4 stays off the tree, and its contact moves
	// from switch 0 to switch 3 when 3 joins.
	install(0, 2, mctree.Receiver)
	if e := far.FIB().Lookup(2); e == nil || e.Contact != 0 || e.ContactNext != 3 {
		t.Fatalf("switch 4 serves %+v, want contact 0 via 3", e)
	}
	if kept, compiles, swaps := install(3, 2, mctree.Receiver); kept || compiles != 1 || swaps != 1 {
		t.Fatalf("contact-route change: kept %v, %d compiles, %d swaps; want swapped, 1, 1", kept, compiles, swaps)
	}
	if e := far.FIB().Lookup(2); e == nil || e.Contact != 3 || e.ContactNext != 3 || len(e.Neighbors) != 0 {
		t.Fatalf("switch 4 serves %+v, want contact 3 via 3", e)
	}
}

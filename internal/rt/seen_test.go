package rt

import (
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// TestSeenSoak pushes >10^5 distinct floods from many origins through a live
// node — every frame delivered twice, each batch in reverse order — and
// asserts the suppression state stays O(origins) rather than O(floods),
// which the old map-based set did not (it kept one entry per flood forever),
// and that exactly the first delivery of each flood reached the LSA loop.
func TestSeenSoak(t *testing.T) {
	const (
		origins         = 8
		floodsPerOrigin = 13_000 // 8 × 13k > 10^5 distinct floods
		batch           = 100    // reorder depth, well inside the 1024-sequence window
	)
	g := topo.New(origins + 1)
	for i := 1; i <= origins; i++ {
		if err := g.AddLink(0, topo.SwitchID(i), time.Microsecond, 1); err != nil {
			t.Fatal(err)
		}
	}
	fab := NewChanFabric(origins + 1)
	defer fab.Close()
	node, err := NewNode(NodeConfig{ID: 0, Graph: g}, fab.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// The node store-and-forwards each fresh flood to its other neighbors;
	// drain those queues so the fabric can quiesce.
	send := make([]Transport, origins+1)
	for i := 1; i <= origins; i++ {
		send[i] = fab.Transport(topo.SwitchID(i))
		go func(tr Transport) {
			for {
				buf, err := tr.Recv()
				if err != nil {
					return
				}
				putBuf(buf)
			}
		}(fab.Transport(topo.SwitchID(i)))
	}

	// Interleave origins; within each origin deliver a batch of frames in
	// reverse (heavy reorder, still inside the window), then re-deliver the
	// whole batch as duplicates.
	for lo := uint64(1); lo <= floodsPerOrigin; lo += batch {
		for o := 1; o <= origins; o++ {
			origin := topo.SwitchID(o)
			for pass := 0; pass < 2; pass++ {
				for s := lo + batch - 1; ; s-- {
					nm := &lsa.NonMC{Src: origin, Seq: uint32(s),
						Change: lsa.LinkChange{A: 0, B: origin, Down: s%2 == 0}}
					buf := lsa.EncodeFrame(&lsa.Frame{
						Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
						Origin: origin, From: origin, Seq: s, Payload: nm.Marshal(),
					})
					if err := send[o].Send(0, buf); err != nil {
						t.Fatal(err)
					}
					if s == lo {
						break
					}
				}
			}
		}
	}

	// Activity counts every frame handled (dup or not) plus every message
	// a received batch handed the machine. With suppression working,
	// exactly the first delivery of each flood is handed over.
	const (
		frames   = 2 * origins * floodsPerOrigin
		enqueued = origins * floodsPerOrigin
		want     = uint64(frames + enqueued)
	)
	deadline := time.Now().Add(60 * time.Second)
	for fab.InFlight() != 0 || !node.idle() || node.activity.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("node did not drain: %d in flight, activity %d/%d",
				fab.InFlight(), node.activity.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := node.activity.Load(); got != want {
		t.Fatalf("activity = %d, want %d (dup floods leaked past suppression)", got, want)
	}
	if errs := node.DecodeErrors(); errs != 0 {
		t.Fatalf("%d decode errors during soak", errs)
	}

	// The suppression state is O(origins): one fixed-size window each.
	if got := node.SeenOrigins(); got > origins {
		t.Fatalf("suppression state tracks %d origins, want ≤ %d", got, origins)
	}
	// And every origin's window holds its whole soak: each of its floods is
	// refused as seen, and the next sequence is still fresh.
	node.relayMu.Lock()
	defer node.relayMu.Unlock()
	for o := 1; o <= origins; o++ {
		origin := topo.SwitchID(o)
		for s := uint64(1); s <= floodsPerOrigin; s++ {
			if node.relay.Accept(origin, s) {
				t.Fatalf("origin %d seq %d accepted after the soak delivered it", o, s)
			}
		}
		if !node.relay.Accept(origin, floodsPerOrigin+1) {
			t.Fatalf("origin %d: the seq after the soak refused", o)
		}
	}
}

// TestFloodForeignOriginRefused sends the middle switch of a 3-switch line
// 5 000 intact flood frames whose origins are no switch of the graph. Each
// must be counted as a decode error and take no window, no relay and no
// machine step — else the suppression state grows with whatever origins the
// wire carries, and every such frame is flooded on. A frame from a real
// origin afterwards is still accepted and relayed.
func TestFloodForeignOriginRefused(t *testing.T) {
	const foreign = 5000
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewChanFabric(3)
	defer fab.Close()
	node, err := NewNode(NodeConfig{ID: 1, Graph: g}, fab.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var relayed atomic.Int64
	go func(tr Transport) {
		for {
			buf, err := tr.Recv()
			if err != nil {
				return
			}
			relayed.Add(1)
			putBuf(buf)
		}
	}(fab.Transport(2))

	frame := func(origin topo.SwitchID) []byte {
		nm := &lsa.NonMC{Src: origin, Seq: 1, Change: lsa.LinkChange{A: 0, B: 1}}
		return lsa.EncodeFrame(&lsa.Frame{
			Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
			Origin: origin, From: 0, Seq: 1, Payload: nm.Marshal(),
		})
	}
	send := fab.Transport(0)
	drain := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fab.InFlight() != 0 || !node.idle() || node.activity.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("node did not drain: %d in flight, activity %d/%d",
					fab.InFlight(), node.activity.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < foreign; i++ {
		if err := send.Send(1, frame(topo.SwitchID(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	drain(foreign)
	if got := node.activity.Load(); got != foreign {
		t.Errorf("activity = %d, want %d: a foreign flood reached the machine", got, foreign)
	}
	if got := node.DecodeErrors(); got != foreign {
		t.Errorf("decode errors = %d, want %d", got, foreign)
	}
	if got := node.SeenOrigins(); got != 0 {
		t.Errorf("suppression state tracks %d origins after foreign floods, want 0", got)
	}
	if got := relayed.Load(); got != 0 {
		t.Errorf("%d foreign floods relayed to switch 2", got)
	}

	if err := send.Send(1, frame(0)); err != nil {
		t.Fatal(err)
	}
	drain(foreign + 2) // the frame, then its LSA
	for deadline := time.Now().Add(time.Second); relayed.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // the drain goroutine counts after its Recv
	}
	if node.SeenOrigins() != 1 || relayed.Load() != 1 {
		t.Errorf("flood from switch 0: %d origins tracked, %d relayed; want 1 and 1",
			node.SeenOrigins(), relayed.Load())
	}
}

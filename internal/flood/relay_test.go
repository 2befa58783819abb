package flood

import (
	"runtime"
	"testing"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// TestSeenWindowSemantics pins the per-origin window and the Relay around it
// against the behaviours both flood paths depend on.
func TestSeenWindowSemantics(t *testing.T) {
	var w seenWin

	if !w.mark(1) {
		t.Fatal("first seq 1 reported dup")
	}
	if w.mark(1) {
		t.Fatal("second seq 1 reported new")
	}
	if w.floor != 1 {
		t.Fatalf("floor = %d after contiguous 1, want 1", w.floor)
	}

	// Out-of-order within the window: accepted, and the floor advances only
	// over the contiguous prefix.
	if !w.mark(3) || !w.mark(5) {
		t.Fatal("in-window out-of-order seqs reported dup")
	}
	if w.floor != 1 {
		t.Fatalf("floor advanced to %d past a gap", w.floor)
	}
	if !w.mark(2) {
		t.Fatal("gap fill 2 reported dup")
	}
	if w.floor != 3 {
		t.Fatalf("floor = %d after filling 2, want 3", w.floor)
	}
	if !w.mark(4) {
		t.Fatal("gap fill 4 reported dup")
	}
	if w.floor != 5 {
		t.Fatalf("floor = %d after filling 4, want 5", w.floor)
	}
	for _, s := range []uint64{1, 2, 3, 4, 5} {
		if w.mark(s) {
			t.Fatalf("replayed seq %d reported new", s)
		}
	}

	// A jump far beyond the window slides it (disjoint: ring fully reset).
	// The skipped range becomes "seen" — the documented false-dup case the
	// resync layer recovers — while in-window sequences stay fresh.
	jump := w.floor + 10*seenWindow
	if !w.mark(jump) {
		t.Fatal("post-jump seq reported dup")
	}
	if w.mark(jump - seenWindow) {
		t.Fatal("seq at slid floor reported new")
	}
	if !w.mark(jump - 1) {
		t.Fatal("in-window seq after slide reported dup")
	}

	// A small (overlapping) slide must clear the bits it slides past:
	// otherwise a stale bit from the previous lap of the ring would make a
	// never-seen sequence at the same position report as a duplicate.
	var w2 seenWin
	w2.mark(1) // floor = 1
	w2.mark(5) // stale bit at ring position 5
	if !w2.mark(1 + seenWindow + 5) {
		t.Fatal("sliding seq reported dup")
	}
	// floor slid 1→6, clearing positions 2..6; seq 1029 (position 5 on the
	// new lap) was never marked and must be fresh.
	if !w2.mark(seenWindow + 5) {
		t.Fatal("stale ring bit resurrected as duplicate after slide")
	}

	// The Relay of switch 2 in a 4-switch graph, booted at epoch 3.
	const epoch = 3
	r := NewRelay(2, 4, epoch)
	if got, want := r.Next(), uint64(epoch<<48|1); got != want {
		t.Fatalf("first Next at epoch %d = %#x, want %#x", epoch, got, want)
	}
	if got, want := r.Next(), uint64(epoch<<48|2); got != want {
		t.Fatalf("second Next = %#x, want %#x", got, want)
	}
	// Its own floods, and origins outside the graph, are refused and take
	// no window.
	for _, o := range []topo.SwitchID{2, -1, 4, 1000} {
		if r.Accept(o, 1) {
			t.Fatalf("origin %d accepted by switch 2 of 4", o)
		}
	}
	if got := r.Origins(); got != 0 {
		t.Fatalf("%d windows after refusing every copy, want 0", got)
	}
	// A previous incarnation's frame still in flight is refused once the
	// origin's new epoch has been seen.
	if !r.Accept(1, epoch<<48|1) || r.Accept(1, epoch<<48|1) {
		t.Fatal("new-epoch frame not accepted exactly once")
	}
	if r.Accept(1, (epoch-1)<<48|7) || r.Accept(1, 7) {
		t.Fatal("previous-epoch frame accepted after the new epoch was seen")
	}
	if !r.Accept(0, 7) || !r.Accept(3, 7) {
		t.Fatal("first copies from other origins refused")
	}
	if got := r.Origins(); got != 3 {
		t.Fatalf("Origins = %d, want 3", got)
	}
}

// TestFloodStateBounded floods a 30-switch graph 2 000 times in each
// hop-by-hop mode, with every inbox drained, and requires the heap to stay
// flat from flood 500 on: duplicate suppression costs one window per
// (switch, origin) pair, not an entry per flood.
func TestFloodStateBounded(t *testing.T) {
	const (
		switches = 30
		warm     = 500
		floods   = 2000
		budget   = 256 << 10
	)
	g, err := topo.Waxman(topo.DefaultGenConfig(switches, 7))
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, mode := range []Mode{HopByHop, Reliable} {
		k := sim.NewKernel()
		n, err := New(k, g, hop, mode)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < switches; s++ {
			inbox := n.Mailbox(topo.SwitchID(s))
			inbox.OnDeliver(func() { inbox.Drain() })
		}
		var before uint64
		for f := 1; f <= floods; f++ {
			n.Flood(topo.SwitchID(f%switches), f)
			k.Run()
			if f == warm {
				before = heap()
			}
		}
		after := heap()
		growth := int64(after) - int64(before)
		t.Logf("%v: heap %d B at flood %d, %d B at flood %d (%+d B)", mode, before, warm, after, floods, growth)
		if growth > budget {
			t.Errorf("%v: heap grew %d B between flood %d and %d, budget %d B", mode, growth, warm, floods, budget)
		}
		runtime.KeepAlive(n)
	}
}

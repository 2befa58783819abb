package lsr

import (
	"sync"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// TestCloneSharesImageUntilWritten: a clone shares its original's image,
// and a link change on either side copies it first, so the other side's
// image and routing table stay as they were. Cloning a clone writes
// nothing, so one snapshot can be cloned from two goroutines at once
// (run under -race).
func TestCloneSharesImageUntilWritten(t *testing.T) {
	g, err := topo.Ring(4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	down := &lsa.NonMC{Src: 0, Seq: 1, Change: lsa.LinkChange{A: 0, B: 3, Down: true}}
	// untouched reports whether inst still routes 0->3 over the direct link.
	untouched := func(inst *Instance) bool {
		l, _ := inst.Image().Link(0, 3)
		nh, _ := inst.NextHop(3)
		return !l.Down && nh == 3
	}
	for _, writeClone := range []bool{true, false} {
		orig, err := NewInstance(0, g)
		if err != nil {
			t.Fatal(err)
		}
		c := orig.Clone()
		if c.Image() != orig.Image() {
			t.Fatal("clone copied the image")
		}
		written, other := orig, c
		if writeClone {
			written, other = c, orig
		}
		if changed, err := written.HandleLSA(down); err != nil || !changed {
			t.Fatalf("HandleLSA: changed=%v err=%v", changed, err)
		}
		if !untouched(other) {
			t.Fatalf("a link-down on one side (clone written: %v) changed the other's image or table", writeClone)
		}
		if nh, _ := written.NextHop(3); untouched(written) || nh != 1 {
			t.Fatalf("written side routes 0->3 via %d, want 1", nh)
		}
	}

	orig, err := NewInstance(0, g)
	if err != nil {
		t.Fatal(err)
	}
	snap := orig.Clone()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := snap.Clone()
			if _, err := c.HandleLSA(down); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !untouched(snap) || !untouched(orig) {
		t.Fatal("restoring a snapshot twice changed the snapshot or its original")
	}
}

package sim

import (
	"slices"
	"testing"
)

// The simulator's receivers lean on OnDeliver and the non-blocking mailbox
// operations; these tests pin down their contract and edge cases.

func TestMailboxSendRecv(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k)
	var got []int
	mb.OnDeliver(func() {
		v, ok := mb.TryRecv()
		if !ok {
			t.Fatal("receiver called with an empty mailbox")
		}
		got = append(got, v.(int))
	})
	mb.Send(1, 10)
	mb.Send(2, 20)
	mb.Send(3, 30)
	k.Run()
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

// TestOnDeliverRunsOncePerDelivery: the receiver runs once per delivery, at
// the delivery's virtual time, in (time, seq) order — simultaneous
// deliveries included.
func TestOnDeliverRunsOncePerDelivery(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k)
	type call struct {
		at  Time
		msg any
	}
	var calls []call
	mb.OnDeliver(func() {
		msg, _ := mb.TryRecv()
		calls = append(calls, call{k.Now(), msg})
	})
	mb.Send("a", 5)
	mb.Send("b", 5)
	mb.Send("first", 1)
	k.Schedule(25, func() { mb.Send("late", 5) })
	mb.Send("c", 5)
	k.Run()
	want := []call{{1, "first"}, {5, "a"}, {5, "b"}, {5, "c"}, {30, "late"}}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
}

// TestBusyReceiverTakesQueuedInOrder: a receiver busy on a scheduled
// continuation leaves deliveries queued and takes them, in order, when the
// continuation ends — the event-callback form of a process holding for Tc.
func TestBusyReceiverTakesQueuedInOrder(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k)
	const tc = 10
	busy := false
	type took struct {
		at  Time
		msg any
	}
	var log []took
	var serve func()
	serve = func() {
		for !busy {
			msg, ok := mb.TryRecv()
			if !ok {
				return
			}
			log = append(log, took{k.Now(), msg})
			busy = true
			k.Schedule(tc, func() {
				busy = false
				serve()
			})
		}
	}
	mb.OnDeliver(serve)
	mb.Send(1, 0) // taken at 0, busy until 10
	mb.Send(2, 3) // queued
	mb.Send(3, 3) // queued behind 2
	mb.Send(4, 7) // queued behind 3
	mb.Send(5, 40)
	k.Run()
	want := []took{{0, 1}, {10, 2}, {20, 3}, {30, 4}, {40, 5}}
	if !slices.Equal(log, want) {
		t.Fatalf("took %v, want %v", log, want)
	}
	if k.Now() != 50 {
		t.Fatalf("now = %v, want 50", k.Now())
	}
}

func TestMailboxTryRecvAndDrain(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k)
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned ok")
	}
	mb.Send("x", 0)
	mb.Send("y", 0)
	k.Run()
	if v, ok := mb.TryRecv(); !ok || v != "x" {
		t.Fatalf("TryRecv = %v,%v", v, ok)
	}
	rest := mb.Drain()
	if len(rest) != 1 || rest[0] != "y" {
		t.Fatalf("drain = %v", rest)
	}
	if got := mb.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after drain = %v", got)
	}
}

func TestMailboxEmptyNonBlockingOps(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k)
	if msg, ok := m.TryRecv(); ok || msg != nil {
		t.Errorf("TryRecv on empty box = (%v, %v), want (nil, false)", msg, ok)
	}
	if got := m.Drain(); got != nil {
		t.Errorf("Drain on empty box = %v, want nil", got)
	}
	if got := m.Snapshot(); len(got) != 0 {
		t.Errorf("Snapshot on empty box = %v, want empty", got)
	}
}

func TestMailboxDrainOrderingUnderSameTimeDeliveries(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k)
	// Three messages delivered at the same virtual time: FIFO must follow
	// send order (the kernel's (time, seq) tie-break).
	m.Send("a", 5)
	m.Send("b", 5)
	m.Send("c", 5)
	// And one earlier message sent last.
	m.Send("first", 1)
	k.Run()
	got := m.Drain()
	want := []string{"first", "a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Drain[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if msg, ok := m.TryRecv(); ok {
		t.Errorf("TryRecv after Drain returned %v", msg)
	}
}

func TestMailboxSnapshotDoesNotConsume(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k)
	m.Send(42, 0)
	k.Run()
	for i := 0; i < 3; i++ {
		if got := m.Snapshot(); len(got) != 1 || got[0] != 42 {
			t.Fatalf("Snapshot #%d = %v, want [42]", i, got)
		}
	}
	if msg, ok := m.TryRecv(); !ok || msg != 42 {
		t.Errorf("TryRecv = (%v, %v), want (42, true)", msg, ok)
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// These tests drive the begin/complete split of a topology computation
// directly — no simulator, no explorer: whatever a host may schedule between
// BeginLocalEvent/BeginReceive and Complete is scheduled here by hand.

const splitConn lsa.ConnID = 1

func full3(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Full(3, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// foreignJoin is switch src's first event as a switch that has heard of
// nothing else floods it: a join carrying its single-member proposal.
func foreignJoin(src topo.SwitchID) *lsa.MC {
	msg := eventMC(3, src, splitConn, 1, lsa.Join)
	msg.Proposal = mctree.New(mctree.Symmetric)
	return msg
}

func join(conn lsa.ConnID) LocalEvent {
	return LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver}
}

// triggered returns the triggered (V = none) LSAs among floods.
func triggered(floods []*lsa.MC) []*lsa.MC {
	var out []*lsa.MC
	for _, msg := range floods {
		if msg.Event == lsa.None {
			out = append(out, msg)
		}
	}
	return out
}

// TestReceiveCompletionWithdrawsAfterLocalEvent: a local event lands between
// ReceiveLSA's begin and its completion, so R is no longer old_R at line 22.
func TestReceiveCompletionWithdrawsAfterLocalEvent(t *testing.T) {
	sn := newScriptNet(t, full3(t), 2, 0)
	m, h := sn.machines[0], sn.hosts[0]
	m.HandleLocalEvent(nil, join(splitConn))
	h.take()
	h.floods = nil

	// Switch 1's join did not know of ours: line 15 sets makeProposal and
	// line 19 starts a computation on R = <1 1 0>.
	if !m.BeginReceive([]any{foreignJoin(1)}) {
		t.Fatal("ReceiveLSA did not begin a computation")
	}
	if !m.Computing(ReceiveLSA) || m.Computing(EventHandler) {
		t.Fatalf("computing: event-handler=%v receive-lsa=%v", m.Computing(EventHandler), m.Computing(ReceiveLSA))
	}
	// Meanwhile EventHandler takes a leave and starts computing too.
	if !m.BeginLocalEvent(LocalEvent{Conn: splitConn, Kind: lsa.Leave}) {
		t.Fatal("EventHandler did not begin a computation")
	}
	withdrawn, computations := m.Metrics().Withdrawn, m.Metrics().Computations
	if m.Complete(ReceiveLSA, false) {
		t.Fatal("ReceiveLSA still computing after its only computation completed")
	}
	h.take()
	if got := m.Metrics().Withdrawn; got != withdrawn+1 {
		t.Errorf("Withdrawn = %d, want %d", got, withdrawn+1)
	}
	if tr := triggered(h.floods); len(tr) != 0 {
		t.Errorf("withdrawn computation flooded %v", tr)
	}
	if !m.conns[splitConn].makeProposal {
		t.Error("makeProposal cleared by a withdrawal")
	}

	// The next batch — here an empty one — recomputes on the current R.
	m.ReceiveBatch(nil, []any{ResyncNudge{Conn: splitConn}})
	if got := m.Metrics().Computations; got != computations+1 {
		t.Errorf("Computations = %d, want %d", got, computations+1)
	}
	h.take()
	tr := triggered(h.floods)
	if len(tr) != 1 || tr[0].Proposal == nil || !tr[0].Stamp.Equal(stamp.Stamp{2, 1, 0}) {
		t.Fatalf("triggered LSAs after the next batch: %v", tr)
	}
	if m.conns[splitConn].makeProposal {
		t.Error("makeProposal still set after the triggered proposal")
	}
}

// TestEventCompletionFloodsBareEventAfterLSA: an event LSA is applied between
// EventHandler's begin and its completion, so R is no longer old_R at line 6.
func TestEventCompletionFloodsBareEventAfterLSA(t *testing.T) {
	sn := newScriptNet(t, full3(t), 2, 0)
	m, h := sn.machines[0], sn.hosts[0]
	if !m.BeginLocalEvent(join(splitConn)) {
		t.Fatal("EventHandler did not begin a computation")
	}
	h.take()
	if len(h.floods) != 0 {
		t.Fatalf("flooded %v before the computation completed", h.floods)
	}
	m.ReceiveBatch(nil, []any{foreignJoin(1)})
	h.take()
	h.floods = nil
	withdrawn := m.Metrics().Withdrawn
	if m.Complete(EventHandler, false) {
		t.Fatal("EventHandler still computing")
	}
	h.take()
	if len(h.floods) != 1 {
		t.Fatalf("floods = %v, want the one event LSA", h.floods)
	}
	msg := h.floods[0]
	if msg.Event != lsa.Join || msg.Proposal != nil || !msg.Stamp.Equal(stamp.Stamp{1, 0, 0}) {
		t.Errorf("flooded %v, want the bare join stamped with old_R <1 0 0>", msg)
	}
	if got := m.Metrics().Withdrawn; got != withdrawn+1 {
		t.Errorf("Withdrawn = %d, want %d", got, withdrawn+1)
	}
	if !m.conns[splitConn].makeProposal {
		t.Error("makeProposal not set by the withdrawal")
	}
}

// TestBothEntitiesPendingEitherOrder: with EventHandler and ReceiveLSA both
// computing at one switch, either completion order leads the network to the
// same installed tree once the remaining LSAs are delivered.
func TestBothEntitiesPendingEitherOrder(t *testing.T) {
	var trees []*mctree.Tree
	for _, order := range [][2]Entity{{EventHandler, ReceiveLSA}, {ReceiveLSA, EventHandler}} {
		sn := newScriptNet(t, full3(t), 2, 0, 1, 2)
		m0 := sn.machines[0]
		if !m0.BeginLocalEvent(join(splitConn)) {
			t.Fatal("EventHandler did not begin a computation")
		}
		sn.machines[1].HandleLocalEvent(nil, join(splitConn))
		sn.hosts[1].take()
		theirs := sn.hosts[1].floods[0]
		if !m0.BeginReceive([]any{theirs}) {
			t.Fatal("ReceiveLSA did not begin a computation")
		}
		for _, e := range order {
			if m0.Complete(e, false) {
				t.Fatalf("%s still computing", e)
			}
		}
		// Switch 0 has consumed switch 1's join already; everything else is
		// still to be delivered.
		sn.machines[2].ReceiveBatch(nil, []any{theirs})
		sn.hosts[1].take()
		sn.hosts[1].floods = nil
		sn.pump()
		var ref Snapshot
		for id, m := range sn.machines {
			snap, ok := m.Connection(splitConn)
			if !ok || snap.Topology == nil {
				t.Fatalf("order %v: switch %d installed nothing", order, id)
			}
			if !snap.R.Equal(stamp.Stamp{1, 1, 0}) || !snap.C.Equal(snap.R) || !snap.E.Equal(snap.R) {
				t.Fatalf("order %v: switch %d unsettled: R=%s E=%s C=%s", order, id, snap.R, snap.E, snap.C)
			}
			if ref.Topology == nil {
				ref = snap
			} else if !snap.Topology.Equal(ref.Topology) {
				t.Fatalf("order %v: trees diverge: %v vs %v", order, snap.Topology, ref.Topology)
			}
		}
		trees = append(trees, ref.Topology)
	}
	if !trees[0].Equal(trees[1]) {
		t.Fatalf("completion order changed the outcome: %v vs %v", trees[0], trees[1])
	}
}

// TestLinkEventComputesPerConnectionInOrder: a link event touching two
// connections is two EventHandler computations, in ascending connection
// order, behind one image-wide forwarding notification.
func TestLinkEventComputesPerConnectionInOrder(t *testing.T) {
	g := full3(t)
	m, h := newScriptMachine(t, MachineConfig{ID: 0, Graph: g, Algorithm: route.SPH{}}, g.Neighbors(0))
	// Connections 2 and 1, in that order, each spanning switches 0 and 1
	// over the direct link.
	for _, conn := range []lsa.ConnID{2, 1} {
		m.HandleLocalEvent(nil, join(conn))
		theirs := foreignJoin(1)
		theirs.Conn = conn
		m.ReceiveBatch(nil, []any{theirs})
		if snap, _ := m.Connection(conn); snap.Topology == nil || !snap.Topology.Has(0, 1) {
			t.Fatalf("conn %d: tree %v does not use link 0-1", conn, snap.Topology)
		}
	}
	h.take()
	h.changed, h.floods = nil, nil
	computations := m.Metrics().Computations

	fail := LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 0, B: 1, Down: true}}
	var order []lsa.ConnID
	for pending := m.BeginLocalEvent(fail); pending; pending = m.Complete(EventHandler, false) {
		order = append(order, m.ComputingConn(EventHandler))
		h.take()
		if len(h.floods) != len(order)-1 {
			t.Fatalf("%d MC LSAs flooded with computation %d pending", len(h.floods), len(order))
		}
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("computations ran for connections %v, want [1 2]", order)
	}
	if got := m.Metrics().Computations; got != computations+2 {
		t.Errorf("Computations = %d, want %d", got, computations+2)
	}
	h.take()
	all := 0
	for _, conn := range h.changed {
		if conn == lsa.AllConns {
			all++
		}
	}
	if all != 1 || len(h.nonMC) != 1 {
		t.Errorf("%d ForwardingChanged(AllConns), %d non-MC LSAs; want one of each (changed=%v)", all, len(h.nonMC), h.changed)
	}
	for _, conn := range []lsa.ConnID{1, 2} {
		if snap, _ := m.Connection(conn); snap.Topology == nil || snap.Topology.Has(0, 1) {
			t.Errorf("conn %d: tree %v still uses the failed link", conn, snap.Topology)
		}
	}
}

// TestCompleteIdleEntity: completing an entity that is not computing reports
// false and changes nothing.
func TestCompleteIdleEntity(t *testing.T) {
	m := seasonedMachine(t)
	before := m.AppendState(nil)
	for _, e := range []Entity{EventHandler, ReceiveLSA} {
		if m.Complete(e, false) {
			t.Errorf("Complete(%s) on an idle entity reported a pending computation", e)
		}
	}
	if !bytes.Equal(m.AppendState(nil), before) {
		t.Error("Complete on idle entities changed the machine's state")
	}
}

// seasonedMachine is switch 0 of a 3-switch full mesh after a fixed history
// that leaves something in every part of its state encoding: two
// connections, an installed tree, an out-of-order arrival, an armed gap
// timer, a failed link.
func seasonedMachine(t *testing.T) *Machine {
	t.Helper()
	sn := newScriptNet(t, full3(t), 2, 0)
	m := sn.machines[0]
	m.HandleLocalEvent(nil, join(splitConn))
	m.ReceiveBatch(nil, []any{foreignJoin(1)})
	m.HandleLocalEvent(nil, join(7))
	m.ReceiveBatch(nil, []any{eventMC(3, 2, splitConn, 2, lsa.Leave)}) // ahead of order: buffered
	m.HandleLocalEvent(nil, LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 0, B: 1, Down: true}})
	m.HandleLocalEvent(nil, LocalEvent{Conn: 7, Kind: lsa.Leave})
	return m
}

// TestAppendStateUnchangedWhenIdle pins the encoding of a machine with
// nothing pending to the bytes it had before computations could be left
// pending: rt snapshots checksum it and the explorer deduplicates by it.
// The digest was taken from seasonedMachine at the parent of the commit that
// introduced the split, and re-pinned when the per-connection change hint
// left the encoding: the new bytes are the old ones less that hint's byte
// per connection.
func TestAppendStateUnchangedWhenIdle(t *testing.T) {
	const want = "39881f9983d006fa03aa7ea4ff3524b8a0c53d6714e5eb2a7f9324f2b58e42f0"
	sum := sha256.Sum256(seasonedMachine(t).AppendState(nil))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("AppendState digest = %s, want %s", got, want)
	}
}

// TestAppendStateCoversPending: a pending computation is part of the state —
// two machines that differ only in what they are computing encode
// differently, a clone encodes like its original, and completing brings the
// encoding back to an idle machine's.
func TestAppendStateCoversPending(t *testing.T) {
	sn := newScriptNet(t, full3(t), 2, 0)
	m := sn.machines[0]
	idle := m.AppendState(nil)
	if !m.BeginLocalEvent(join(splitConn)) {
		t.Fatal("EventHandler did not begin a computation")
	}
	pending := m.AppendState(nil)
	if bytes.Equal(pending, idle) {
		t.Fatal("a pending computation does not show in the encoding")
	}
	c := m.Clone()
	if !bytes.Equal(c.AppendState(nil), pending) {
		t.Fatal("clone of a computing machine encodes differently")
	}
	m.Complete(EventHandler, false)
	if !c.Computing(EventHandler) {
		t.Fatal("completing the original completed its clone")
	}
	c.Complete(EventHandler, false)
	if !bytes.Equal(c.AppendState(nil), m.AppendState(nil)) {
		t.Fatal("original and clone diverged over the same completion")
	}
}

// TestCloneOwnsPendingBatch: BeginReceive reuses its index and group arrays
// from batch to batch, and a clone taken part way through a batch must not
// see the original reuse them. The original finishes the batch and runs two
// more through the same arrays; the clone still encodes the batch it was
// cloned in, and finishing it lands where the original's finish did.
func TestCloneOwnsPendingBatch(t *testing.T) {
	sn := newScriptNet(t, full3(t), 2, 0)
	m := sn.machines[0]
	m.HandleLocalEvent(nil, join(splitConn))
	m.HandleLocalEvent(nil, join(7))
	other := eventMC(3, 1, 7, 1, lsa.Join)
	other.Proposal = mctree.New(mctree.Symmetric)
	// Switch 1's joins knew of neither of ours: each connection owes a
	// proposal, so the batch stops at the first and keeps the second.
	if !m.BeginReceive([]any{foreignJoin(1), other}) {
		t.Fatal("ReceiveLSA did not begin a computation")
	}
	pending := m.AppendState(nil)
	c := m.Clone()
	for more := m.Complete(ReceiveLSA, false); more; more = m.Complete(ReceiveLSA, false) {
	}
	finished := m.AppendState(nil)
	m.ReceiveBatch(nil, []any{eventMC(3, 2, 7, 1, lsa.Join), eventMC(3, 2, splitConn, 1, lsa.Join)})
	m.ReceiveBatch(nil, []any{eventMC(3, 2, splitConn, 2, lsa.Leave)})
	if !bytes.Equal(c.AppendState(nil), pending) {
		t.Fatal("the original's later batches changed the batch its clone is part way through")
	}
	for more := c.Complete(ReceiveLSA, false); more; more = c.Complete(ReceiveLSA, false) {
	}
	if !bytes.Equal(c.AppendState(nil), finished) {
		t.Fatal("the clone finished its batch differently from the original")
	}
}

package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

func line(t testing.TB, n int) *topo.Graph {
	t.Helper()
	g, err := topo.Line(n, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// churn drives events join/leave pairs through switch id's EventHandler,
// pumping after each so every other machine in the net applies them.
func (sn *scriptNet) churn(id topo.SwitchID, events int) {
	sn.t.Helper()
	for i := 0; i < events; i++ {
		ev := LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
		if sn.machines[id].conns[1] != nil && sn.machines[id].conns[1].members[id] != 0 {
			ev = LocalEvent{Conn: 1, Kind: lsa.Leave}
		}
		sn.machines[id].HandleLocalEvent(nil, ev)
		sn.pump()
	}
}

// retainedIndexes lists (origin, index) of every retained entry, in log order,
// walking back from logLast as trimLog does.
func retainedIndexes(cs *connState) [][2]uint32 {
	var out [][2]uint32
	cur := cs.logLast.Clone()
	for end := len(cs.logArena); end > 0; {
		body, start := prevRecord(cs.logArena, end)
		r := recordReader{enc: body}
		x := int(r.uvarint())
		out = append(out, [2]uint32{uint32(x), cur[x]})
		r.skip(2)
		r.stepStamp(cur, false)
		end = start
	}
	slices.Reverse(out)
	return out
}

// TestEventLogBounded pins the point of the trim: what a switch retains
// does not grow with how long the connection has lived. Heap after 20 000
// events is within 1 MB of heap after 2 000 (at the parent commit the
// difference was the whole log, ≈ 6 MB for this machine alone), and the log
// never reaches EventLogLimit.
func TestEventLogBounded(t *testing.T) {
	m, err := NewMachine(MachineConfig{ID: 0, Graph: line(t, 16), Algorithm: route.SPH{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	heapAfter := func(events int) uint64 {
		for i := 0; i < events; i++ {
			kind, role := lsa.Join, mctree.SenderReceiver
			if i%2 == 1 {
				kind, role = lsa.Leave, 0
			}
			m.HandleLocalEvent(nil, LocalEvent{Conn: 1, Kind: kind, Role: role})
			m.ClearEffects()
			if d := m.EventLogDepth(); d >= EventLogLimit {
				t.Fatalf("log depth %d reached the limit %d", d, EventLogLimit)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at2k := heapAfter(2000)
	at20k := heapAfter(18000)
	if at20k > at2k+1<<20 {
		t.Fatalf("heap grew with history: %d B after 2 000 events, %d B after 20 000", at2k, at20k)
	}
	cs := m.conns[1]
	if cs.r[0] != 20000 || cs.logFloor[0] != cs.r[0]-uint32(cs.logDepth) {
		t.Fatalf("floor does not meet the suffix: r=%d floor=%d retained=%d", cs.r[0], cs.logFloor[0], cs.logDepth)
	}
	runtime.KeepAlive(m)
}

// TestColdRejoinBelowFloor is the cold rejoin the unbounded log existed
// for, after the log has been trimmed many times over: a blank switch asks
// its neighbor for everything and ends with the neighbor's stamps, member
// list and topology — recovered from one catch-up per origin plus the
// retained suffix, not from a replay of history.
func TestColdRejoinBelowFloor(t *testing.T) {
	g := line(t, 3)
	sn := newScriptNet(t, g, 4, 0, 1)
	sn.churn(0, 3*EventLogRetain+1) // ends joined
	sn.churn(1, 5)                  // ends joined; still inside the suffix
	srv := sn.machines[1]
	if srv.conns[1].logFloor[0] == 0 {
		t.Fatal("server never trimmed; the test is not testing anything")
	}

	blank, h := newScriptMachine(t, MachineConfig{ID: 2, Graph: g, Algorithm: route.SPH{}, Resync: true, ResyncMaxRounds: 4}, g.Neighbors(2))
	sn.machines[2], sn.hosts[2] = blank, h
	blank.RequestFullResync(h.neighbors)
	sn.pump()

	want, _ := srv.Connection(1)
	got, ok := blank.Connection(1)
	if !ok {
		t.Fatal("rejoined switch has no state for the connection")
	}
	if !got.R.Equal(want.R) || !got.E.Equal(want.E) || !got.C.Equal(want.C) {
		t.Fatalf("stamps differ after rejoin: got R=%s E=%s C=%s, want R=%s E=%s C=%s",
			got.R, got.E, got.C, want.R, want.E, want.C)
	}
	if !got.Members.Equal(want.Members) || !got.Topology.Equal(want.Topology) {
		t.Fatalf("state differs after rejoin: members %v vs %v, topology %v vs %v",
			got.Members, want.Members, got.Topology, want.Topology)
	}
	if blank.Gapped(1) {
		t.Fatal("rejoined switch still gapped")
	}
	// Origin 0 came by catch-up; origin 1's five events by replay.
	if n := blank.Metrics().CatchUpsApplied; n != 1 {
		t.Fatalf("CatchUpsApplied = %d, want 1", n)
	}
	if n := srv.Metrics().CatchUpsServed; n != 1 {
		t.Fatalf("CatchUpsServed = %d, want 1", n)
	}
	if got := retainedIndexes(blank.conns[1]); len(got) != 5 || got[0] != [2]uint32{1, 1} || got[4] != [2]uint32{1, 5} {
		t.Fatalf("replayed suffix not logged in order: %v", got)
	}
	// What the rejoined switch cannot replay it will catch others up on.
	if f := blank.conns[1].logFloor; f[0] != want.R[0] || f[1] != 0 {
		t.Fatalf("floor after rejoin = %s, want origin 0 at %d and origin 1 at 0", f, want.R[0])
	}
}

// TestServeResyncPerOrigin checks the split serveResync makes per origin:
// a gap inside the retained suffix is replayed event by event, exactly as
// before the log was bounded; a gap reaching below the floor gets one
// catch-up and none of that origin's events; an origin the requester is
// level on gets nothing; the capstone closes the batch.
func TestServeResyncPerOrigin(t *testing.T) {
	g := line(t, 3)
	sn := newScriptNet(t, g, 4, 0, 1)
	sn.churn(0, 5) // ends joined, so a topology stays installed
	sn.churn(1, 2)
	srv, host := sn.machines[1], sn.hosts[1]
	cs := srv.conns[1]
	cs.trimLog(3) // drops 0's events 1..4; keeps 0/5, 1/1, 1/2

	serve := func(r stamp.Stamp) []*lsa.MC {
		host.take()
		host.unicasts = nil
		srv.ReceiveBatch(nil, []any{&lsa.ResyncRequest{Conn: 1, From: 2, R: r}})
		host.take()
		if len(host.unicasts) != 1 {
			t.Fatalf("R=%s: %d responses", r, len(host.unicasts))
		}
		return host.unicasts[0].payload.(*lsa.ResyncResponse).Batch
	}
	describe := func(batch []*lsa.MC) (out []string) {
		for _, m := range batch {
			out = append(out, m.Event.String()+"/"+m.Stamp.String())
		}
		return out
	}

	// Origin 0 three behind (below the floor of 4), origin 1 one behind.
	batch := serve(stamp.Stamp{2, 1, 0})
	if len(batch) != 3 {
		t.Fatalf("batch = %v", describe(batch))
	}
	cu := batch[0]
	if cu.Event != lsa.CatchUp || cu.Src != 0 || cu.Role != mctree.SenderReceiver || !cu.Stamp.Equal(cs.r) || cu.Proposal != nil {
		t.Fatalf("catch-up = %s role %v, want origin 0 as a member at R=%s", cu, cu.Role, cs.r)
	}
	if ev := batch[1]; ev.Src != 1 || ev.Event != lsa.Leave || ev.Stamp[1] != 2 {
		t.Fatalf("replayed event = %s, want origin 1's 2nd", ev)
	}
	if cap := batch[2]; cap.Event != lsa.None || cap.Proposal != cs.topology || !cap.Stamp.Equal(cs.c) {
		t.Fatalf("capstone = %s, want the installed topology at C=%s", cap, cs.c)
	}

	// Origin 0 exactly at the floor: the suffix covers the rest — no catch-up.
	batch = serve(stamp.Stamp{4, 2, 0})
	if len(batch) != 2 || batch[0].Event != lsa.Join || batch[0].Src != 0 || batch[0].Stamp[0] != 5 {
		t.Fatalf("at-the-floor batch = %v, want origin 0's 5th event + capstone", describe(batch))
	}
	if srv.Metrics().CatchUpsServed != 1 {
		t.Fatalf("CatchUpsServed = %d, want 1", srv.Metrics().CatchUpsServed)
	}
}

// TestCatchUpApply drives applyEventLSA's fast-forward directly: buffered
// events at or below the catch-up are superseded, the one right above it is
// released, a stale catch-up is dropped whole, and entries logged before
// the fast-forward are never served again.
func TestCatchUpApply(t *testing.T) {
	g := line(t, 3)
	m, h := newScriptMachine(t, MachineConfig{ID: 1, Graph: g, Algorithm: route.SPH{}, Resync: true}, g.Neighbors(1))
	role := mctree.SenderReceiver
	ev := func(idx uint32, e lsa.Event) *lsa.MC {
		mc := eventMC(3, 0, 1, idx, e)
		if e == lsa.Join {
			mc.Role = role
		}
		return mc
	}
	m.ReceiveBatch(nil, []any{ev(1, lsa.Join)})
	m.ReceiveBatch(nil, []any{ev(3, lsa.Join), ev(6, lsa.Leave)}) // 2, 4, 5 missing: both buffered
	cs := m.conns[1]
	if cs.r[0] != 1 || cs.oooCount != 2 {
		t.Fatalf("setup: r=%d ooo=%d", cs.r[0], cs.oooCount)
	}

	catchUp := &lsa.MC{Src: 0, Event: lsa.CatchUp, Role: role, Conn: 1, Stamp: stamp.Stamp{5, 0, 0}}
	m.ReceiveBatch(nil, []any{catchUp})
	if cs.r[0] != 6 || cs.oooCount != 0 || cs.logFloor[0] != 5 {
		t.Fatalf("after catch-up: r=%d ooo=%d floor=%d, want 6, 0, 5", cs.r[0], cs.oooCount, cs.logFloor[0])
	}
	if _, member := cs.members[0]; member {
		t.Fatal("released leave (6th event) not applied on top of the catch-up")
	}
	if m.Metrics().CatchUpsApplied != 1 {
		t.Fatalf("CatchUpsApplied = %d", m.Metrics().CatchUpsApplied)
	}
	if got := retainedIndexes(cs); len(got) != 2 || got[0] != [2]uint32{0, 1} || got[1] != [2]uint32{0, 6} {
		t.Fatalf("log = %v, want the 1st and 6th events (the catch-up itself is not logged)", got)
	}

	// Stale: nothing moves, including E (the stamp claims a 9th event of
	// switch 2 that the drop must not make us expect).
	before := m.AppendState(nil)
	m.ReceiveBatch(nil, []any{&lsa.MC{Src: 0, Event: lsa.CatchUp, Role: role, Conn: 1, Stamp: stamp.Stamp{6, 0, 9}}})
	if string(m.AppendState(nil)) != string(before) || m.Metrics().CatchUpsApplied != 1 {
		t.Fatal("stale catch-up changed state")
	}

	// The 1st event is still in the log but below the floor: a requester at
	// zero is caught up and then replayed only the 6th.
	h.take()
	h.unicasts = nil
	m.ReceiveBatch(nil, []any{&lsa.ResyncRequest{Conn: 1, From: 2, R: stamp.New(3)}})
	h.take()
	batch := h.unicasts[0].payload.(*lsa.ResyncResponse).Batch
	if len(batch) < 1 || batch[0].Event != lsa.CatchUp || batch[0].Stamp[0] != 6 {
		t.Fatalf("served %d LSAs, first %s; want a catch-up at 6", len(batch), batch[0])
	}
	for _, mc := range batch[1:] {
		if mc.Event.IsEvent() {
			t.Fatalf("served %s alongside the catch-up that covers it", mc)
		}
	}
}

// TestReplayMarkedByEncoding: a batch carrying one event both by flood and
// in a replay treats the event as replay-learned — re-flooded once —
// whether or not the two copies are one object. A replay is decoded from
// the server's records, so on a fabric that shares LSAs by pointer the
// copies stopped being one object when the log stopped holding pointers.
func TestReplayMarkedByEncoding(t *testing.T) {
	g := line(t, 3)
	for _, shared := range []bool{true, false} {
		m, err := NewMachine(MachineConfig{ID: 1, Graph: g, Algorithm: route.SPH{}, Resync: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		flooded := eventMC(3, 0, 1, 1, lsa.Join)
		replayed := flooded
		if !shared {
			replayed = eventMC(3, 0, 1, 1, lsa.Join)
		}
		m.ReceiveBatch(nil, []any{flooded, &lsa.ResyncResponse{Conn: 1, From: 2, Batch: []*lsa.MC{replayed}}})
		if n := m.Metrics().Replays; n != 1 {
			t.Fatalf("shared=%v: %d re-floods of the replayed event, want 1", shared, n)
		}
	}
}

// TestCloneCarriesFloor: a clone serves exactly what its original would.
func TestCloneCarriesFloor(t *testing.T) {
	g := line(t, 3)
	sn := newScriptNet(t, g, 4, 0, 1)
	sn.churn(0, 4)
	m := sn.machines[1]
	m.CompactEventLogs()
	if m.EventLogDepth() != 0 {
		t.Fatalf("depth after compaction = %d", m.EventLogDepth())
	}
	c := m.Clone()
	if string(c.AppendState(nil)) != string(m.AppendState(nil)) {
		t.Fatal("clone encodes differently")
	}
	if !c.conns[1].logFloor.Equal(m.conns[1].logFloor) || c.conns[1].logFloor[0] != 4 {
		t.Fatalf("clone floor %s, original %s", c.conns[1].logFloor, m.conns[1].logFloor)
	}
	c.conns[1].logFloor[0] = 99
	if m.conns[1].logFloor[0] != 4 {
		t.Fatal("clone shares its floor with the original")
	}
}

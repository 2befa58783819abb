package core

import (
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// scriptHost records what a machine's calls ask for, taken from its effect
// list, so a test can shuttle messages between machines in any order it
// wants — including the adversarial interleavings the simulator's scheduler
// would only hit by luck. Tests call take before they read the lists.
type scriptHost struct {
	m         *Machine
	id        topo.SwitchID
	neighbors []topo.SwitchID

	floods   []*lsa.MC
	nonMC    []*lsa.NonMC
	unicasts []scriptUnicast
	armed    []lsa.ConnID
	nudges   []lsa.ConnID
	changed  []lsa.ConnID
}

type scriptUnicast struct {
	to      topo.SwitchID
	payload any
}

// newScriptMachine builds a machine for cfg and the scriptHost recording it.
func newScriptMachine(t *testing.T, cfg MachineConfig, neighbors []topo.SwitchID) (*Machine, *scriptHost) {
	t.Helper()
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, &scriptHost{m: m, id: cfg.ID, neighbors: neighbors}
}

// take moves the machine's effects into the recorded lists.
func (h *scriptHost) take() {
	for _, e := range h.m.Effects() {
		switch e.Kind {
		case EffectFloodMC:
			h.floods = append(h.floods, e.MC)
		case EffectFloodNonMC:
			h.nonMC = append(h.nonMC, e.NonMC)
		case EffectUnicast:
			h.unicasts = append(h.unicasts, scriptUnicast{to: e.To, payload: e.Payload})
		case EffectArmResync:
			h.armed = append(h.armed, e.Conn)
		case EffectSelfNudge:
			h.nudges = append(h.nudges, e.Conn)
		case EffectForwardingChanged:
			h.changed = append(h.changed, e.Conn)
		}
	}
	h.m.ClearEffects()
}

// scriptNet is a set of machines wired through scriptHosts with explicit
// message pumping.
type scriptNet struct {
	t        *testing.T
	machines map[topo.SwitchID]*Machine
	hosts    map[topo.SwitchID]*scriptHost
}

func newScriptNet(t *testing.T, g *topo.Graph, resyncMax int, ids ...topo.SwitchID) *scriptNet {
	t.Helper()
	sn := &scriptNet{
		t:        t,
		machines: map[topo.SwitchID]*Machine{},
		hosts:    map[topo.SwitchID]*scriptHost{},
	}
	for _, id := range ids {
		m, h := newScriptMachine(t, MachineConfig{
			ID: id, Graph: g, Algorithm: route.SPH{},
			Resync: true, ResyncMaxRounds: resyncMax,
		}, g.Neighbors(id))
		sn.machines[id] = m
		sn.hosts[id] = h
	}
	return sn
}

// pump delivers queued messages between the net's machines until quiescent:
// floods go to every other machine, unicasts to their target, nudges back
// to their sender. When the message queues drain but gap timers are armed,
// it fires them (the "timeout elapsed" moment) and keeps pumping; it stops
// when nothing is queued and nothing is armed, or fails the test after a
// bounded number of rounds.
func (sn *scriptNet) pump() {
	sn.t.Helper()
	for round := 0; ; round++ {
		if round > 200 {
			sn.t.Fatal("script net did not quiesce in 200 pump rounds")
		}
		moved := false
		for id, h := range sn.hosts {
			h.take()
			floods, unis, nudges := h.floods, h.unicasts, h.nudges
			h.floods, h.unicasts, h.nudges = nil, nil, nil
			for _, mc := range floods {
				for other, m := range sn.machines {
					if other != id {
						m.ReceiveBatch(nil, []any{mc})
						moved = true
					}
				}
			}
			for _, u := range unis {
				if m, ok := sn.machines[u.to]; ok {
					m.ReceiveBatch(nil, []any{u.payload})
					moved = true
				}
			}
			for _, conn := range nudges {
				sn.machines[id].ReceiveBatch(nil, []any{ResyncNudge{Conn: conn}})
				moved = true
			}
		}
		if moved {
			continue
		}
		// Queues drained; let pending gap timers fire.
		fired := false
		for id, h := range sn.hosts {
			h.take()
			armed := h.armed
			h.armed = nil
			for _, conn := range armed {
				sn.machines[id].ResyncFired(conn, h.neighbors)
				fired = true
			}
		}
		if !fired {
			return
		}
	}
}

// eventMC builds switch src's idx-th event LSA for conn on an n-switch
// network (the stamp encodes only src's own counter, as a real event LSA
// from a switch that has seen nothing else would).
func eventMC(n int, src topo.SwitchID, conn lsa.ConnID, idx uint32, ev lsa.Event) *lsa.MC {
	st := make([]uint32, n)
	st[src] = idx
	return &lsa.MC{Src: src, Event: ev, Conn: conn, Role: mctree.SenderReceiver, Stamp: st}
}

// TestResyncGiveUpRearmsOnNewEvidence is the regression test for the silent
// wedge: a gap whose resync budget is exhausted must become an explicit
// terminal state, and a later change in the connection's observed state —
// here another out-of-order event — must restart recovery with a fresh
// budget instead of staying wedged forever.
func TestResyncGiveUpRearmsOnNewEvidence(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const conn = lsa.ConnID(1)
	m, h := newScriptMachine(t, MachineConfig{
		ID: 2, Graph: g, Algorithm: route.SPH{},
		Resync: true, ResyncMaxRounds: 2,
	}, g.Neighbors(2))

	// Event #2 from switch 0 arrives before event #1: buffered out of
	// order, the connection is gapped, and a gap check is armed.
	m.ReceiveBatch(nil, []any{eventMC(3, 0, conn, 2, lsa.Leave)})
	if !m.Gapped(conn) {
		t.Fatal("machine not gapped after an out-of-order event")
	}
	h.take()
	if len(h.armed) != 1 {
		t.Fatalf("armed %d gap checks, want 1", len(h.armed))
	}

	// Every resync request is lost (the host just records them). Two rounds
	// exhaust the budget; the third check is the give-up.
	for i := 0; i < 3; i++ {
		h.armed = nil
		m.ResyncFired(conn, h.neighbors)
		h.take()
	}
	if got := m.Metrics().ResyncGiveUps; got != 1 {
		t.Fatalf("ResyncGiveUps = %d, want 1", got)
	}
	if !m.ResyncGaveUp(conn) {
		t.Fatal("machine does not report the terminal give-up state")
	}
	if len(h.unicasts) != 2 {
		t.Fatalf("sent %d resync requests, want 2 (the budget)", len(h.unicasts))
	}
	// Terminal means terminal: identical evidence must not re-arm. A
	// duplicate of the same out-of-order event changes nothing.
	h.armed = nil
	m.ReceiveBatch(nil, []any{eventMC(3, 0, conn, 2, lsa.Leave)})
	h.take()
	if len(h.armed) != 0 {
		t.Fatalf("duplicate evidence re-armed recovery: %v", h.armed)
	}
	if got := m.Metrics().ResyncRearms; got != 0 {
		t.Fatalf("ResyncRearms = %d before any new evidence", got)
	}

	// New evidence — a third event from the same origin — must re-arm with
	// a fresh budget.
	m.ReceiveBatch(nil, []any{eventMC(3, 0, conn, 3, lsa.Join)})
	if got := m.Metrics().ResyncRearms; got != 1 {
		t.Fatalf("ResyncRearms = %d, want 1", got)
	}
	h.take()
	if len(h.armed) != 1 {
		t.Fatalf("new evidence armed %d gap checks, want 1", len(h.armed))
	}
	if m.ResyncGaveUp(conn) {
		t.Fatal("still reporting give-up after recovery re-armed")
	}

	// The missing event finally arrives; the ordering gap closes and the
	// buffered successors apply in order (join, leave, join → member
	// present). Commit lag remains — there is no peer to commit with — so
	// check R against E rather than gapped().
	m.ReceiveBatch(nil, []any{eventMC(3, 0, conn, 1, lsa.Join)})
	snap, ok := m.Connection(conn)
	if !ok {
		t.Fatal("no connection state")
	}
	if !snap.R.Geq(snap.E) {
		t.Fatalf("ordering gap still open after the missing event arrived: R=%s E=%s", snap.R, snap.E)
	}
	if snap.R[0] != 3 {
		t.Fatalf("R[0] = %d, want 3", snap.R[0])
	}
	if _, in := snap.Members[0]; !in {
		t.Fatal("member 0 missing after ordered replay of the buffer")
	}
}

// TestSimultaneousBidirectionalResync reconciles two healed peers that both
// initiate at the same instant — each side's request crosses the other's on
// the wire — and requires both to converge to the elementwise-max event set
// with one agreed topology. This is the first exchange after every heal, so
// the symmetric race is the common case, not a corner.
func TestSimultaneousBidirectionalResync(t *testing.T) {
	g, err := topo.Line(2, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const conn = lsa.ConnID(1)
	sn := newScriptNet(t, g, 8, 0, 1)
	m0, m1 := sn.machines[0], sn.machines[1]
	h0, h1 := sn.hosts[0], sn.hosts[1]

	// Diverge: each switch joins locally but its flood never reaches the
	// other (the partition window). Drop the captured floods.
	m0.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})
	m1.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})
	h0.take()
	h1.take()
	h0.floods, h0.nonMC, h0.unicasts, h0.nudges = nil, nil, nil, nil
	h1.floods, h1.nonMC, h1.unicasts, h1.nudges = nil, nil, nil, nil

	// Heal: both sides reconcile simultaneously; requests cross.
	m0.ReconcileNeighbor(1)
	m1.ReconcileNeighbor(0)
	h0.take()
	h1.take()
	if len(h0.unicasts) != 1 || len(h1.unicasts) != 1 {
		t.Fatalf("reconcile sent %d/%d unicasts, want 1/1", len(h0.unicasts), len(h1.unicasts))
	}
	sn.pump()

	s0, _ := m0.Connection(conn)
	s1, _ := m1.Connection(conn)
	if !s0.R.Equal(s1.R) || s0.R[0] != 1 || s0.R[1] != 1 {
		t.Fatalf("R did not converge to the elementwise max: %s vs %s", s0.R, s1.R)
	}
	if !s0.Members.Equal(s1.Members) || len(s0.Members) != 2 {
		t.Fatalf("members did not merge: %v vs %v", s0.Members, s1.Members)
	}
	if !s0.C.Equal(s1.C) || !s0.R.Equal(s0.C) {
		t.Fatalf("commit did not settle: R=%s C0=%s C1=%s", s0.R, s0.C, s1.C)
	}
	if s0.Topology == nil || !s0.Topology.Equal(s1.Topology) {
		t.Fatalf("topologies disagree after reconciliation: %v vs %v", s0.Topology, s1.Topology)
	}
	if m0.Metrics().Reconciles == 0 || m1.Metrics().Reconciles == 0 {
		t.Fatal("reconcile exchanges not counted")
	}
}

// TestResyncResponseRacesFreshLocalEvent interleaves a replay with a brand
// new local event: the requester originates its own event after asking for
// the replay but before the response lands. The response must fill the gap
// without clobbering the fresh event, and both switches must converge on
// the union.
func TestResyncResponseRacesFreshLocalEvent(t *testing.T) {
	g, err := topo.Line(2, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const conn = lsa.ConnID(1)
	sn := newScriptNet(t, g, 8, 0, 1)
	m0, m1 := sn.machines[0], sn.machines[1]
	h0, h1 := sn.hosts[0], sn.hosts[1]

	// Shared history: switch 1 joins and switch 0 sees it.
	m1.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})
	h1.take()
	for _, mc := range h1.floods {
		m0.ReceiveBatch(nil, []any{mc})
	}
	h0.take()
	h0.floods, h0.nonMC, h0.unicasts, h0.nudges = nil, nil, nil, nil
	h1.floods, h1.nonMC, h1.nudges = nil, nil, nil

	// Partition: switch 1 leaves but the flood never crosses.
	m1.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Leave})
	h1.take()
	h1.floods, h1.nonMC, h1.nudges = nil, nil, nil

	// Heal: switch 0 asks switch 1 for a replay.
	m0.ReconcileNeighbor(1)
	h0.take()
	req := h0.unicasts[0]
	h0.unicasts = nil
	m1.ReceiveBatch(nil, []any{req.payload})
	h1.take()
	if len(h1.unicasts) != 1 {
		t.Fatalf("request produced %d responses, want 1", len(h1.unicasts))
	}
	resp := h1.unicasts[0]
	h1.unicasts = nil

	// The race: before the response lands, switch 0 originates a fresh
	// event of its own.
	m0.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})

	// Now the response arrives, replaying switch 1's history.
	m0.ReceiveBatch(nil, []any{resp.payload})
	s0, _ := m0.Connection(conn)
	if s0.R[0] != 1 || s0.R[1] != 2 {
		t.Fatalf("R = %s, want [1 2] (own fresh event plus the replayed pair)", s0.R)
	}
	if _, in := s0.Members[0]; !in {
		t.Fatal("replay clobbered the fresh local join")
	}
	if _, in := s0.Members[1]; in {
		t.Fatal("replayed leave not applied (member 1 still listed)")
	}

	// Let the queued floods and timers finish the exchange; both switches
	// must converge on the union.
	sn.pump()
	s0, _ = m0.Connection(conn)
	s1, _ := m1.Connection(conn)
	if !s0.R.Equal(s1.R) || !s0.C.Equal(s1.C) || !s0.Members.Equal(s1.Members) {
		t.Fatalf("no convergence after the race: R %s/%s C %s/%s members %v/%v",
			s0.R, s1.R, s0.C, s1.C, s0.Members, s1.Members)
	}
}

// TestReplayEndsAtPseudoProposalBoundary pins the shape and handling of a
// replay batch: the served batch is the event-log suffix beyond the
// requester's R followed by exactly one pseudo-proposal (the server's
// installed topology at its committed stamp) — and the receiver re-floods
// only the replayed *events*, never the pseudo-proposal, which exists only
// for the requesting switch.
func TestReplayEndsAtPseudoProposalBoundary(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const conn = lsa.ConnID(1)
	sn := newScriptNet(t, g, 8, 1, 2)
	m1, m2 := sn.machines[1], sn.machines[2]

	// Switches 1 and 2 build a two-member connection and commit a topology.
	m1.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})
	m2.HandleLocalEvent(nil, LocalEvent{Conn: conn, Kind: lsa.Join, Role: mctree.SenderReceiver})
	sn.pump()
	s1, _ := m1.Connection(conn)
	if s1.Topology == nil || !s1.R.Equal(s1.C) {
		t.Fatalf("setup did not commit: R=%s C=%s topo=%v", s1.R, s1.C, s1.Topology)
	}

	// A blank latecomer (switch 0) cold-rejoins from switch 1.
	m0, h0 := newScriptMachine(t, MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{}, Resync: true, ResyncMaxRounds: 8,
	}, g.Neighbors(0))
	m0.RequestFullResync(h0.neighbors)
	h0.take()
	if len(h0.unicasts) != 1 {
		t.Fatalf("full resync sent %d requests, want 1 (one neighbor)", len(h0.unicasts))
	}
	req := h0.unicasts[0]
	h0.unicasts = nil
	h1 := sn.hosts[1]
	m1.ReceiveBatch(nil, []any{req.payload})
	h1.take()
	if len(h1.unicasts) != 1 {
		t.Fatalf("wildcard request produced %d responses, want 1", len(h1.unicasts))
	}
	resp, ok := h1.unicasts[0].payload.(*lsa.ResyncResponse)
	if !ok {
		t.Fatalf("response payload is %T", h1.unicasts[0].payload)
	}
	h1.unicasts = nil

	// Batch shape: every entry but the last is a real event, the last is
	// the pseudo-proposal terminator.
	if len(resp.Batch) != 3 {
		t.Fatalf("replay batch has %d entries, want 3 (two events + pseudo-proposal)", len(resp.Batch))
	}
	for i, mc := range resp.Batch[:len(resp.Batch)-1] {
		if !mc.Event.IsEvent() {
			t.Fatalf("batch[%d] is not an event: %+v", i, mc)
		}
	}
	last := resp.Batch[len(resp.Batch)-1]
	if last.Event.IsEvent() || last.Proposal == nil || !last.Stamp.Equal(s1.C) {
		t.Fatalf("batch does not end with a pseudo-proposal at C: %+v", last)
	}

	// Apply: the latecomer adopts state and re-floods the two events — and
	// only the events.
	m0.ReceiveBatch(nil, []any{resp})
	h0.take()
	s0, _ := m0.Connection(conn)
	if !s0.R.Equal(s1.R) || !s0.Members.Equal(s1.Members) {
		t.Fatalf("latecomer did not adopt the replayed state: R=%s members=%v", s0.R, s0.Members)
	}
	if s0.Topology == nil || !s0.Topology.Equal(s1.Topology) {
		t.Fatalf("latecomer did not adopt the pseudo-proposal topology: %v", s0.Topology)
	}
	if got := m0.Metrics().Replays; got != 2 {
		t.Fatalf("re-flooded %d replayed LSAs, want 2", got)
	}
	for _, mc := range h0.floods {
		if !mc.Event.IsEvent() && mc.Proposal != nil && mc.Src == 1 {
			t.Fatal("the pseudo-proposal was re-flooded")
		}
	}
}

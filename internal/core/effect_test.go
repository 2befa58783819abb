package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dgmc/internal/lsa"
	"dgmc/internal/route"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// These tests pin the machine's side of its runtime boundary: which
// effects each entry point returns, of which kinds, in which order.

// effectNames names the effect kinds the tests pin.
var effectNames = map[EffectKind]string{
	EffectFloodMC: "flood-mc", EffectFloodNonMC: "flood-non-mc", EffectUnicast: "unicast",
	EffectArmResync: "arm-resync", EffectSelfNudge: "self-nudge", EffectNoteInstall: "note-install",
	EffectForwardingChanged: "forwarding-changed", EffectFabricLinkChanged: "fabric-link-changed",
}

// effectKinds renders an effect list as its kinds, each trace effect as
// trace:<trace kind>.
func effectKinds(fx []Effect) []string {
	var out []string
	for _, e := range fx {
		if e.Kind == EffectTrace {
			out = append(out, "trace:"+e.Trace.Kind.String())
		} else {
			out = append(out, effectNames[e.Kind])
		}
	}
	return out
}

func wantEffects(t *testing.T, what string, fx []Effect, want ...string) {
	t.Helper()
	if got := effectKinds(fx); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: effects %v, want %v", what, got, want)
	}
}

func standAlone(t *testing.T, id topo.SwitchID, resync bool) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{ID: id, Graph: full3(t), Algorithm: route.SPH{}, Resync: resync}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEffectsJoinAtOrigin: a join at the origin floods its proposal,
// installs it and reports the forwarding change, traced step by step.
func TestEffectsJoinAtOrigin(t *testing.T) {
	m := standAlone(t, 0, false)
	m.HandleLocalEvent(nil, join(splitConn))
	fx := m.Effects()
	wantEffects(t, "join at the origin", fx,
		"trace:event", "trace:compute", "trace:flood", "flood-mc",
		"note-install", "trace:install", "forwarding-changed")
	if mc := fx[3].MC; mc == nil || mc.Src != 0 || mc.Event != lsa.Join || mc.Proposal == nil || !mc.Stamp.Equal(stamp.Stamp{1, 0, 0}) {
		t.Fatalf("flooded %v, want switch 0's join with its proposal at <1 0 0>", fx[3].MC)
	}
	if fx[6].Conn != splitConn {
		t.Fatalf("forwarding change for conn %d, want %d", fx[6].Conn, splitConn)
	}
	if got, want := fx[0].Trace.Detail(), "local join event"; got != want {
		t.Fatalf("event record renders %q, want %q", got, want)
	}
	if got, want := fx[5].Trace.Detail(), fmt.Sprintf("installed %s via event-handler", fx[3].MC.Proposal); got != want {
		t.Fatalf("install record renders %q, want %q", got, want)
	}
	m.ClearEffects()
	if len(m.Effects()) != 0 {
		t.Fatal("ClearEffects left effects behind")
	}
}

// TestEffectsBystanderReceive: the same LSA at a switch that is not a
// member installs the carried proposal and reports the change; it floods
// nothing.
func TestEffectsBystanderReceive(t *testing.T) {
	origin := standAlone(t, 0, false)
	origin.HandleLocalEvent(nil, join(splitConn))
	flood := origin.Effects()[3].MC
	m := standAlone(t, 2, false)
	m.ReceiveBatch(nil, []any{flood})
	fx := m.Effects()
	wantEffects(t, "bystander receive", fx,
		"trace:recv", "note-install", "trace:install", "forwarding-changed")
	if got, want := fx[0].Trace.Detail(), "recv "+flood.String(); got != want {
		t.Fatalf("recv record renders %q, want %q", got, want)
	}
	if got, want := fx[2].Trace.Detail(), fmt.Sprintf("installed %s via receive-lsa", flood.Proposal); got != want {
		t.Fatalf("install record renders %q, want %q", got, want)
	}
}

// commitLagged returns switch 0 of a resync-enabled full mesh with every
// event it knows of applied and none committed: switch 1's bare join came
// without a proposal. Its gap timer is armed and the effects are cleared.
func commitLagged(t *testing.T) *Machine {
	t.Helper()
	m := standAlone(t, 0, true)
	m.ReceiveBatch(nil, []any{eventMC(3, 1, splitConn, 1, lsa.Join)})
	wantEffects(t, "bare join", m.Effects(), "trace:recv", "forwarding-changed", "arm-resync")
	m.ClearEffects()
	return m
}

// TestEffectsCommitLagResync: a gap check that finds only the commit
// lagging nudges the switch's own ReceiveLSA and re-arms; it sends nothing.
func TestEffectsCommitLagResync(t *testing.T) {
	m := commitLagged(t)
	m.ResyncFired(splitConn, []topo.SwitchID{1, 2})
	fx := m.Effects()
	wantEffects(t, "commit-lag check", fx, "trace:resync", "self-nudge", "arm-resync")
	if fx[1].Conn != splitConn || fx[2].Conn != splitConn {
		t.Fatalf("nudge for conn %d, re-arm for conn %d, want %d", fx[1].Conn, fx[2].Conn, splitConn)
	}
}

// TestEffectsReconcileNeighbor: heal reconciliation sends the neighbor one
// request per connection, advertising R.
func TestEffectsReconcileNeighbor(t *testing.T) {
	m := standAlone(t, 0, true)
	m.HandleLocalEvent(nil, join(splitConn))
	m.ClearEffects()
	m.ReconcileNeighbor(2)
	fx := m.Effects()
	wantEffects(t, "reconcile", fx, "trace:heal", "unicast")
	req, ok := fx[1].Payload.(*lsa.ResyncRequest)
	if fx[1].To != 2 || !ok || req.Conn != splitConn || req.From != 0 || !req.R.Equal(stamp.Stamp{1, 0, 0}) {
		t.Fatalf("unicast to %d of %#v, want switch 0's request for conn %d at <1 0 0> to 2", fx[1].To, fx[1].Payload, splitConn)
	}
	one := stamp.Stamp{1, 0, 0}
	if got, want := fx[0].Trace.Detail(), fmt.Sprintf("reconciling with 2 after heal (R=%s E=%s C=%s)", one, one, one); got != want {
		t.Fatalf("heal record renders %q, want %q", got, want)
	}
}

// TestTraceRecordRendersAsRecorded: a record that prints R, rendered after
// a later batch has advanced R, prints what formatting it on the spot
// printed.
func TestTraceRecordRendersAsRecorded(t *testing.T) {
	m := commitLagged(t)
	snap, _ := m.Connection(splitConn)
	eager := fmt.Sprintf("commit lag (R=%s C=%s): self-nudging a proposal (round %d)", snap.R, snap.C, 1)
	m.ResyncFired(splitConn, nil)
	rec := m.Effects()[0].Trace
	m.ClearEffects()
	m.ReceiveBatch(nil, []any{eventMC(3, 2, splitConn, 1, lsa.Join)})
	if later, _ := m.Connection(splitConn); later.R.Equal(snap.R) {
		t.Fatal("the later batch did not advance R")
	}
	if got := rec.Detail(); got != eager {
		t.Fatalf("record renders %q after R moved, eagerly %q", got, eager)
	}
}

// TestCloneStepsAlone: a clone starts with no effects, and stepping it
// leaves the parent's effects and state as they were.
func TestCloneStepsAlone(t *testing.T) {
	m := standAlone(t, 0, true)
	m.HandleLocalEvent(nil, join(splitConn))
	before := effectKinds(m.Effects())
	state := m.AppendState(nil)
	c := m.Clone()
	if len(c.Effects()) != 0 {
		t.Fatalf("clone starts with effects %v", effectKinds(c.Effects()))
	}
	c.ReceiveBatch(nil, []any{foreignJoin(1)})
	c.ReconcileNeighbor(1)
	c.ClearEffects()
	c.HandleLocalEvent(nil, join(7))
	if got := effectKinds(m.Effects()); !reflect.DeepEqual(got, before) {
		t.Fatalf("stepping the clone changed the parent's effects: %v, was %v", got, before)
	}
	if !bytes.Equal(m.AppendState(nil), state) {
		t.Fatal("stepping the clone changed the parent's state")
	}
}

// TestAppendStateAllocatesNothing: encoding a machine with two
// connections, members and an out-of-order arrival into a buffer that
// holds it allocates nothing.
func TestAppendStateAllocatesNothing(t *testing.T) {
	m := seasonedMachine(t)
	if len(m.AllConnections()) != 2 || m.GapBufferDepth() == 0 {
		t.Fatalf("seasoned machine: connections %v, %d buffered", m.AllConnections(), m.GapBufferDepth())
	}
	buf := make([]byte, 0, 2*len(m.AppendState(nil)))
	if got := testing.AllocsPerRun(100, func() { buf = m.AppendState(buf[:0]) }); got != 0 {
		t.Fatalf("AppendState: %.1f allocs per call into a pre-sized buffer", got)
	}
}

// TestSwapEffectsLendsArray: effects land in the lent array, and the array
// handed back is emptied of everything it held.
func TestSwapEffectsLendsArray(t *testing.T) {
	m := standAlone(t, 0, false)
	m.HandleLocalEvent(nil, join(splitConn))
	lent := make([]Effect, 0, 16)
	old := m.SwapEffects(lent)
	if len(old) != 0 || old[:cap(old)][0].MC != nil {
		t.Fatalf("returned array still holds %d effects or their LSAs", len(old))
	}
	m.HandleLocalEvent(nil, LocalEvent{Conn: splitConn, Kind: lsa.Leave})
	if fx := m.Effects(); len(fx) == 0 || &fx[0] != &lent[:1][0] {
		t.Fatal("the leave's effects are not in the lent array")
	}
	if back := m.SwapEffects(nil); len(back) != 0 || cap(back) != 16 || len(m.Effects()) != 0 {
		t.Fatalf("swapped back %d effects in a %d-array, %d left", len(back), cap(back), len(m.Effects()))
	}
}

package explore

import (
	"encoding/base64"
	"strings"
	"testing"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// at reports whether a is an action of the given kind addressed to switch sw
// (the fault lane has no addressee).
func at(w *World, a action, kind actionKind, sw topo.SwitchID) bool {
	switch {
	case a.kind != kind:
		return false
	case kind == actInject || kind == actComplete:
		return a.sw == sw
	case kind == actFault:
		return true
	default:
		return w.pending[a.msg].to == sw
	}
}

// step applies the first enabled action of the given kind at switch sw and
// fails the test if there is none.
func step(t *testing.T, w *World, kind actionKind, sw topo.SwitchID) {
	t.Helper()
	for _, a := range w.enabled() {
		if at(w, a, kind, sw) {
			w.apply(a)
			if err := w.checkStep(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no enabled action of kind %d at switch %d among %d", kind, sw, len(w.enabled()))
}

func count(w *World, kind actionKind, sw topo.SwitchID) int {
	n := 0
	for _, a := range w.enabled() {
		if at(w, a, kind, sw) {
			n++
		}
	}
	return n
}

// TestPendingComputationGatesItsEntity walks one schedule by hand through
// everything a pending computation changes about a world: the completion is
// an action, the computing entity takes no further input (injects wait at
// the switch, deliveries wait in flight, where they still count as queued
// and can still be duplicated), the switch's other entity carries on, and
// the world is not quiescent.
func TestPendingComputationGatesItsEntity(t *testing.T) {
	cfg, scn := computeGate(t)
	cfg.MaxComputes, cfg.MaxDups = 4, 1
	scn.Injects = append(scn.Injects, Inject{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Leave}})
	w, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}

	step(t, w, actInject, 0)
	m0 := w.Machine(0)
	if !m0.Computing(core.EventHandler) || len(w.pending) != 0 {
		t.Fatalf("after inject: computing=%v, %d messages in flight", m0.Computing(core.EventHandler), len(w.pending))
	}
	if acts := w.enabled(); acts[0].kind != actComplete || w.Quiescent() {
		t.Fatalf("completion is not the first enabled action: %+v", acts)
	}
	if n := count(w, actInject, 0); n != 0 {
		t.Fatal("switch 0 takes its next inject while EventHandler computes")
	}

	// Switch 1 joins, unaware of switch 0; its LSA reaches switch 0 twice.
	step(t, w, actInject, 1)
	step(t, w, actComplete, 1)
	step(t, w, actDup, 0)
	step(t, w, actDeliver, 0)
	if !m0.Computing(core.ReceiveLSA) || !m0.Computing(core.EventHandler) {
		t.Fatal("switch 0 should now be computing in both entities")
	}
	if n := count(w, actDeliver, 0); n != 0 {
		t.Fatal("a copy is deliverable to switch 0 while ReceiveLSA computes")
	}
	if n := count(w, actDeliver, 2); n != 1 {
		t.Fatalf("%d copies deliverable to switch 2, want 1", n)
	}

	// The waiting copy is queued as far as line 22 is concerned: ReceiveLSA's
	// proposal is withdrawn, and only then is the copy consumed.
	withdrawn := m0.Metrics().Withdrawn
	w.apply(action{kind: actComplete, sw: 0, ent: core.ReceiveLSA})
	if got := m0.Metrics().Withdrawn; got != withdrawn+1 {
		t.Fatalf("Withdrawn = %d, want %d", got, withdrawn+1)
	}
	if n := count(w, actDeliver, 0); n != 1 {
		t.Fatalf("%d copies deliverable to switch 0 once ReceiveLSA is idle, want 1", n)
	}

	// Drain: the schedule converges like any other.
	for i := 0; !w.Quiescent(); i++ {
		if i > 1000 {
			t.Fatal("world does not quiesce")
		}
		w.applyIndex(0)
		if err := w.checkStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.checkQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDiscardsPendingComputation: a switch that dies while computing
// takes the computation with it.
func TestCrashDiscardsPendingComputation(t *testing.T) {
	cfg, scn := computeGate(t)
	cfg.Resync = true
	scn.Faults = []FaultOp{{Kind: FaultCrash, Switch: 0}, {Kind: FaultRestart, Switch: 0}}
	w, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	step(t, w, actInject, 0)
	step(t, w, actFault, 0)
	if w.Machine(0).Computing(core.EventHandler) || count(w, actComplete, 0) != 0 {
		t.Fatal("a crashed switch still has a computation to complete")
	}
	res, err := RandomWalk(cfg, scn, Options{Walks: 64, Seed: 5})
	if err != nil || res.Violation != nil {
		t.Fatalf("crash lane with a compute budget: err=%v violation=%v", err, res.Violation)
	}
}

// TestComputeBudgetZeroIsAtomic: without a budget no world ever holds a
// pending computation, and with one the search visits a superset.
func TestComputeBudgetZeroIsAtomic(t *testing.T) {
	cfg, scn := computeGate(t)
	states := map[int]int{}
	for _, budget := range []int{0, 1, 2, 4} {
		cfg.MaxComputes = budget
		res, err := Exhaustive(cfg, scn, Options{})
		if err != nil || res.Violation != nil || res.Stats.Truncated {
			t.Fatalf("budget %d: err=%v violation=%v stats=%+v", budget, err, res.Violation, res.Stats)
		}
		states[budget] = res.Stats.States
	}
	if !(states[0] < states[1] && states[1] < states[2] && states[2] <= states[4]) {
		t.Fatalf("state counts by budget: %v", states)
	}
	cfg.MaxComputes = 0
	w, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	for !w.Quiescent() {
		w.applyIndex(len(w.enabled()) - 1) // injects last: the raciest canonical schedule
		for s := 0; s < w.n; s++ {
			for _, e := range entities {
				if w.Machine(topo.SwitchID(s)).Computing(e) {
					t.Fatalf("switch %d left computing at budget 0", s)
				}
			}
		}
	}
}

// TestTokenV3RoundTrip: a compute budget rides in a v3 token, with or
// without a fault lane, and budget-free configurations keep their v1/v2
// encodings.
func TestTokenV3RoundTrip(t *testing.T) {
	cfg, scn := computeGate(t)
	sched := []int{0, 1, 0, 1}
	for _, faults := range [][]FaultOp{nil, {{Kind: FaultCompact, Switch: 1}}} {
		cfg.Resync = faults != nil
		scn.Faults = faults
		tok, err := EncodeToken(cfg, scn, sched)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(tok, "dgmc-sched-v3:") {
			t.Fatalf("token %q not v3", tok)
		}
		dcfg, dscn, dsched, err := DecodeToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		if dcfg.MaxComputes != cfg.MaxComputes || len(dscn.Faults) != len(faults) || len(dscn.Injects) != len(scn.Injects) || len(dsched) != len(sched) {
			t.Fatalf("round trip mangled: %+v %+v %v", dcfg, dscn, dsched)
		}
		again, err := EncodeToken(dcfg, dscn, dsched)
		if err != nil || again != tok {
			t.Fatalf("re-encoding differs: %v\n %s\n %s", err, tok, again)
		}
		cfg0 := cfg
		cfg0.MaxComputes = 0
		if old, err := EncodeToken(cfg0, scn, sched); err != nil || strings.HasPrefix(old, "dgmc-sched-v3:") {
			t.Fatalf("budget-free token became v3: %v %s", err, old)
		}
	}
	// Without a fault lane the token ends: fault count 0, budget, schedule
	// length, the four choices.
	scn.Faults, cfg.Resync = nil, false
	tok, _ := EncodeToken(cfg, scn, sched)
	raw, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(tok, tokenPrefixV3))
	if err != nil || raw[len(raw)-6] != byte(cfg.MaxComputes) {
		t.Fatalf("unexpected v3 layout: %v %v", err, raw)
	}
	raw[len(raw)-6] = 0
	if _, _, _, err := DecodeToken(tokenPrefixV3 + base64.RawURLEncoding.EncodeToString(raw)); err == nil {
		t.Fatal("v3 token with a zero compute budget accepted")
	}
}

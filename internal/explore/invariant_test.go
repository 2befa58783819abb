package explore

import (
	"strings"
	"testing"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
)

// TestInvariantEmptyConnectionSet: a world with no injected events holds
// no per-connection state anywhere; both the per-step and the quiescent
// invariants must pass vacuously, and exhaustive search must see exactly
// one (clean, quiescent) state.
func TestInvariantEmptyConnectionSet(t *testing.T) {
	cfg := Config{Graph: ring4(t)}
	w, err := NewWorld(cfg, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Quiescent() {
		t.Fatal("empty world not quiescent")
	}
	if err := w.checkStep(); err != nil {
		t.Fatalf("per-step invariants on the empty world: %v", err)
	}
	if err := w.checkQuiescent(); err != nil {
		t.Fatalf("quiescent invariants on the empty world: %v", err)
	}
	res, err := Exhaustive(cfg, Scenario{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || res.Stats.States != 1 || res.Stats.Quiescent != 1 {
		t.Fatalf("empty scenario: %+v violation=%v", res.Stats, res.Violation)
	}
}

// TestInvariantOwnHighCarryover: the origin-authority bound must survive
// a crash of the origin. After switch 3 floods its join and crashes, the
// survivors legitimately hold R[3]=1 while the blank origin holds
// nothing; the high-water mark captured at crash time (World.ownHigh) is
// what keeps checkStep satisfied. Erasing the carryover must make the
// same state an origin-authority violation — proving the bound is
// enforced through the mark, not vacuously.
func TestInvariantOwnHighCarryover(t *testing.T) {
	cfg := Config{Graph: ring4(t), Resync: true, ResyncMaxRounds: 2}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 3, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultCrash, Switch: 3},
			{Kind: FaultRestart, Switch: 3},
		},
	}
	w, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	// Drain deliveries (choice 0 prefers them) until only the fault lane
	// remains, then fire the crash and stop before the restart.
	for w.faultPos == 0 {
		if _, ok := w.applyIndex(0); !ok {
			t.Fatal("world quiesced before the crash fired")
		}
	}
	if len(w.machines[3].AllConnections()) != 0 {
		t.Fatal("crashed switch still holds connection state")
	}
	snap, ok := w.machines[0].Connection(1)
	if !ok || snap.R[3] == 0 {
		t.Fatalf("survivor lost the origin's events: ok=%v snap=%+v", ok, snap)
	}
	if err := w.checkStep(); err != nil {
		t.Fatalf("post-crash state must satisfy checkStep via the high-water carryover: %v", err)
	}
	saved := w.ownHigh
	w.ownHigh = nil
	err = w.checkStep()
	w.ownHigh = saved
	if err == nil {
		t.Fatal("erasing the crash high-water marks did not trip the origin-authority bound")
	}
	if !strings.Contains(err.Error(), "exceeds origin's own count") {
		t.Fatalf("wrong violation: %v", err)
	}
}

// TestInvariantLossyDowngrade: a schedule that spends drop budget is held
// to the lossy quiescent standard. Dropping every frame addressed to
// switch 3 leaves it with no state for the connection — a strict
// agreement violation — but no surviving switch is gapped, so the lossy
// standard accepts the world. checkQuiescent must route on lossyStandard
// and pass; the strict agreement check on the same world must fail.
func TestInvariantLossyDowngrade(t *testing.T) {
	cfg := Config{Graph: ring4(t), MaxDrops: 32, Resync: true, ResyncMaxRounds: 2}
	w, err := NewWorld(cfg, twoJoins())
	if err != nil {
		t.Fatal(err)
	}
	if w.lossyStandard() {
		t.Fatal("fresh world already lossy")
	}
	for {
		acts := w.enabled()
		if len(acts) == 0 {
			break
		}
		chosen := -1
		for i, a := range acts {
			if a.kind == actDeliver && w.pending[a.msg].to == 3 {
				continue // never deliver to 3; prefer its drop below
			}
			if a.kind == actDrop && w.pending[a.msg].to != 3 {
				continue
			}
			if a.kind == actDup {
				continue
			}
			chosen = i
			break
		}
		if chosen < 0 {
			t.Fatalf("no acceptable action among %d", len(acts))
		}
		w.apply(acts[chosen])
	}
	if !w.lossyStandard() {
		t.Fatalf("dropped frames but still strict: dropsLeft=%d max=%d", w.dropsLeft, w.cfg.MaxDrops)
	}
	if _, ok := w.machines[3].Connection(1); ok {
		t.Fatal("switch 3 heard about the connection despite the drops")
	}
	if err := core.CheckAgreement(w.graph, w.views()); err == nil {
		t.Fatal("strict agreement check passed a world where switch 3 has no state")
	}
	if err := w.checkQuiescent(); err != nil {
		t.Fatalf("lossy standard rejected a legitimate lossy outcome: %v", err)
	}
}

package explore

import (
	"strings"
	"testing"

	"dgmc/internal/core"
)

// TestSuspectKindNames: every kind has a unique name, and out-of-range
// values render defensively.
func TestSuspectKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := SuspectKind(0); k < numSuspectKinds; k++ {
		name := k.String()
		if seen[name] || strings.HasPrefix(name, "suspect(") {
			t.Fatalf("kind %d has a duplicate or fallback name %q", k, name)
		}
		seen[name] = true
	}
	if got := SuspectKind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("out-of-range kind renders as %q", got)
	}
}

func TestSuspectCountsOps(t *testing.T) {
	var sc suspectCounts
	if sc.score() != 0 {
		t.Fatal("zero counts should score 0")
	}
	sc[SuspectCommitLag] = 2
	sc[SuspectSettledDivergence] = 1
	want := 2*suspectWeights[SuspectCommitLag] + suspectWeights[SuspectSettledDivergence]
	if sc.score() != want {
		t.Fatalf("score %d, want %d", sc.score(), want)
	}
}

// TestSuspectScan drives a real world one step and checks the scanner:
// the initial world is suspect-free, and the state right after a local
// join — origin has applied the event, proposal still in flight — shows
// the origin's commit lag but no orphaned proposal (the flood frames are
// pending, so a future delivery can still trigger the commit).
func TestSuspectScan(t *testing.T) {
	w, err := NewWorld(Config{Graph: ring4(t)}, twoJoins())
	if err != nil {
		t.Fatal(err)
	}
	if sc := w.suspects(); sc.score() != 0 {
		t.Fatalf("initial world already suspect: %v", sc)
	}
	rootShape := w.stampShape()
	if !strings.HasPrefix(rootShape, "f0") {
		t.Fatalf("shape missing fault-lane position: %q", rootShape)
	}

	// Apply the switch-0 inject.
	applied := false
	for _, a := range w.enabled() {
		if a.kind == actInject && a.sw == 0 {
			w.apply(a)
			applied = true
			break
		}
	}
	if !applied {
		t.Fatal("no inject enabled at the initial world")
	}
	sc := w.suspects()
	if sc[SuspectOrphanedProposal] != 0 {
		t.Fatalf("proposal with frames in flight misclassified as orphaned: %v", sc)
	}
	if sc[SuspectHealResidue] != 0 {
		t.Fatalf("heal residue without a fault lane: %v", sc)
	}
	if shape := w.stampShape(); shape == rootShape {
		t.Fatalf("shape did not change across a join: %q", shape)
	}

	// The flooded MC copies (one per component peer) must be visible to
	// the pending-frame probe, and only for the connection they carry.
	if !w.hasPendingMC(1, 1) || !w.hasPendingMC(2, 1) || !w.hasPendingMC(3, 1) {
		t.Fatal("flooded MC copies not seen by hasPendingMC")
	}
	if w.hasPendingMC(1, 99) {
		t.Fatal("hasPendingMC claims a frame for a connection nothing carries")
	}
}

// TestSuspectScanSettledDivergence checks the pairwise scan on a real
// diverged world: replay an ignore-event-order counterexample to its bad
// quiescent state — switches settled at identical stamps with different
// member lists — and assert the scanner flags it, while the same world
// drained from a mutation-free run stays clean.
func TestSuspectScanSettledDivergence(t *testing.T) {
	settle := func(w *World) {
		for {
			if _, ok := w.applyIndex(0); !ok {
				return
			}
		}
	}
	cfg, scn := gate6(t)
	w, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	settle(w)
	if sc := w.suspects(); sc[SuspectSettledDivergence] != 0 {
		t.Fatalf("converged world reports settled divergence: %v", sc)
	}

	cfg.Mutation = core.MutationIgnoreEventOrder
	res, err := Guided(cfg, scn, Options{Budget: gateBudget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !res.Violation.Quiescent {
		t.Fatalf("expected a quiescent counterexample, got %+v", res.Violation)
	}
	bad, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	for _, choice := range res.Violation.Schedule {
		bad.applyIndex(choice)
	}
	settle(bad)
	sc := bad.suspects()
	if sc[SuspectSettledDivergence] == 0 {
		t.Fatalf("settled divergence not flagged on a diverged quiescent world: %v (err %v)", sc, res.Violation.Err)
	}
}

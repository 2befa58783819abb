package explore

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// gate6 is the guided-search CI gate scenario: a 6-switch ring with four
// membership events (a join/leave pair at switch 0, a join at switch 1,
// and a join at switch 3) interleaved with a 3|3 partition and its heal.
// Exhaustive search cannot reach a single quiescent state of this world
// within any CI-sized state budget — the interesting behavior (stale
// resync capstones, reordered same-origin events, cross-partition stamp
// races) lives tens of forced choices deep. Guided search must catch
// every corpus mutation here, and report the mutation-free world clean.
func gate6(t *testing.T) (Config, Scenario) {
	t.Helper()
	g, err := topo.Ring(6, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Leave}},
			{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
			{Switch: 3, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1, 2}, {3, 4, 5}}},
			{Kind: FaultHeal},
		},
	}
	return Config{Graph: g, Resync: true, ResyncMaxRounds: 2}, scn
}

// gate6Compact is gate6 with switch 2 — one of the two switches on the
// first group's side of the cut — trimming its event log to nothing before
// the heal, so switch 3 reconciles with a peer that can no longer replay.
func gate6Compact(t *testing.T) (Config, Scenario) {
	cfg, scn := gate6(t)
	scn.Faults = []FaultOp{scn.Faults[0], {Kind: FaultCompact, Switch: 2}, scn.Faults[1]}
	return cfg, scn
}

// computeGate is the world the two mutations of the computation window are
// hunted on: a full mesh of three switches, two concurrent joins, and a
// compute budget that leaves both EventHandler computations pending. It
// runs without gap recovery, which repairs exactly what they break (a
// commit left behind R looks like a lost proposal flood): on gate6 neither
// is caught within the gate budget.
func computeGate(t *testing.T) (Config, Scenario) {
	t.Helper()
	g, err := topo.Full(3, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
	}}
	return Config{Graph: g, MaxComputes: 2}, scn
}

// gateFor returns the gate world a mutation is hunted on: the one seeded
// bug that needs a trimmed log to show gets the gate with a compaction,
// the two that need the computation window get computeGate.
func gateFor(t *testing.T, mu core.Mutation) (Config, Scenario) {
	cfg, scn := gate6(t)
	switch mu {
	case core.MutationTruncateWithoutCatchUp:
		cfg, scn = gate6Compact(t)
	case core.MutationCompleteWithoutRecheck, core.MutationNoInconsistencyCheck:
		cfg, scn = computeGate(t)
	}
	cfg.Mutation = mu
	return cfg, scn
}

// gateBudget is the transition+probe-step budget of the CI gate. Guided
// search catches every corpus mutation well inside it and clears the
// mutation-free world by exhausting it.
const gateBudget = 200000

// TestGuidedCleanGate: the mutation-free gate world must produce no
// violation across the full budget — guided search is aggressive, not
// unsound — and the coverage map must show it actually explored: many
// qualitative stamp shapes, the complete fault lane, and drain probes
// reaching quiescence.
func TestGuidedCleanGate(t *testing.T) {
	cfg, scn := gate6(t)
	res, err := Guided(cfg, scn, Options{Budget: gateBudget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("false alarm on mutation-free gate: %v\ntrace:\n%s",
			res.Violation.Err, strings.Join(res.Violation.Trace, "\n"))
	}
	cov := res.Stats.Coverage
	if len(cov.StampShapes) < 100 {
		t.Fatalf("guided search explored only %d stamp shapes", len(cov.StampShapes))
	}
	if cov.FaultDepth != len(scn.Faults) {
		t.Fatalf("fault lane incomplete: reached depth %d of %d", cov.FaultDepth, len(scn.Faults))
	}
	if res.Stats.Probes == 0 || res.Stats.Quiescent == 0 {
		t.Fatalf("no drain probes reached quiescence: %+v", res.Stats)
	}
	t.Logf("clean gate: states=%d probes=%d shapes=%d", res.Stats.States, res.Stats.Probes, len(cov.StampShapes))
}

// TestGuidedCatchesGateCorpus: every seeded mutation in the corpus must
// be caught on the gate scenario within the CI budget, and each
// counterexample must replay from its token to the same failure.
func TestGuidedCatchesGateCorpus(t *testing.T) {
	for _, mu := range core.Mutations() {
		if mu == core.MutationNone {
			continue
		}
		t.Run(mu.String(), func(t *testing.T) {
			cfg, scn := gateFor(t, mu)
			res, err := Guided(cfg, scn, Options{Budget: gateBudget})
			if err != nil {
				t.Fatal(err)
			}
			v := res.Violation
			if v == nil {
				t.Fatalf("mutation %v not caught within budget %d; stats %+v", mu, gateBudget, res.Stats)
			}
			t.Logf("caught after %d spent: %v", res.Stats.spent(), v.Err)
			tcfg, tscn, tsched, err := DecodeToken(v.Token)
			if err != nil {
				t.Fatalf("decode token: %v", err)
			}
			if tcfg.Mutation != mu {
				t.Fatalf("token lost the mutation: %v", tcfg.Mutation)
			}
			_, tv, err := Replay(tcfg, tscn, tsched)
			if err != nil {
				t.Fatal(err)
			}
			if tv == nil {
				t.Fatal("token replay no longer violates")
			}
			if tv.Err.Error() != v.Err.Error() {
				t.Fatalf("token replay found a different violation:\n search: %v\n token:  %v", v.Err, tv.Err)
			}
		})
	}
}

// TestGuidedDeterministic pins the guided search order: two runs with the
// same seed must pop identical (depth, score, hash) sequences from the
// frontier and produce deeply equal results. Determinism is what makes a
// guided CI gate debuggable — a failure reproduces exactly.
func TestGuidedDeterministic(t *testing.T) {
	type pop struct {
		depth, score int
		hash         [32]byte
	}
	run := func(seed int64) ([]pop, *Result) {
		cfg, scn := gate6(t)
		var pops []pop
		opt := Options{Budget: 20000, Seed: seed}
		opt.expandHook = func(depth, score int, hash [32]byte) {
			pops = append(pops, pop{depth, score, hash})
		}
		res, err := Guided(cfg, scn, opt)
		if err != nil {
			t.Fatal(err)
		}
		return pops, res
	}
	pops1, res1 := run(7)
	pops2, res2 := run(7)
	if !reflect.DeepEqual(pops1, pops2) {
		t.Fatalf("same seed, different expansion order: %d vs %d pops", len(pops1), len(pops2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("same seed, different results:\n %+v\n %+v", res1.Stats, res2.Stats)
	}
	// A different seed perturbs the order of near-equal-priority states.
	pops3, _ := run(8)
	if reflect.DeepEqual(pops1, pops3) {
		t.Logf("seeds 7 and 8 expanded identically (%d pops) — jitter had no effect on this run", len(pops1))
	}
}

// TestGuidedBudgetTruncates: a starved budget must stop the search
// cleanly — truncated, no violation, no error.
func TestGuidedBudgetTruncates(t *testing.T) {
	cfg, scn := gate6(t)
	res, err := Guided(cfg, scn, Options{Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation.Err)
	}
	if !res.Stats.Truncated {
		t.Fatalf("budget 200 not marked truncated: %+v", res.Stats)
	}
}

// TestGuidedOnlyCatchWithinCIBudget is the acceptance contrast of the
// issue: at least one corpus mutation must be caught by guided search
// within the CI budget while exhaustive search, given a comparable state
// budget on the same mutated world, exhausts it without ever reaching a
// quiescent state.
func TestGuidedOnlyCatchWithinCIBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive contrast too slow for -short")
	}
	cfg, scn := gate6(t)
	cfg.Mutation = core.MutationUncappedPseudoProposal

	gres, err := Guided(cfg, scn, Options{Budget: gateBudget})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Violation == nil {
		t.Fatalf("guided search missed the mutation: %+v", gres.Stats)
	}

	eres, err := Exhaustive(cfg, scn, Options{MaxStates: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if eres.Violation != nil {
		t.Fatalf("exhaustive search unexpectedly caught the mutation within budget: %v", eres.Violation.Err)
	}
	if !eres.Stats.Truncated {
		t.Fatalf("exhaustive search was not even truncated: %+v", eres.Stats)
	}
	if eres.Stats.Quiescent != 0 {
		t.Logf("exhaustive reached %d quiescent states before truncation", eres.Stats.Quiescent)
	}
	t.Logf("guided caught in %d spent; exhaustive truncated at %d states with %d quiescent",
		gres.Stats.spent(), eres.Stats.States, eres.Stats.Quiescent)
}

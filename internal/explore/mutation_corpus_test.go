package explore

import (
	"strings"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// gate6 is the CI gate scenario: a 6-switch ring with four membership
// events (a join/leave pair at switch 0, a join at switch 1, and a join at
// switch 3) interleaved with a 3|3 partition and its heal. Exhaustive
// search cannot reach a single quiescent state of this world within any
// CI-sized state budget — the interesting behavior (stale resync
// capstones, reordered same-origin events, cross-partition stamp races)
// lives tens of forced choices deep. Random walks must catch every corpus
// mutation here, and report the mutation-free world clean.
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
// commit left behind R looks like a lost proposal flood).
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

// gateWalks is the walk count of the mutation gate, at the CLI's default
// seed 1: every corpus mutation is caught well inside it.
const gateWalks = 1024

// TestMutationCorpus is the corpus table gate: every seeded mutation the
// checker knows must be caught by gateWalks random walks on its gate world
// — the 6-switch gate scenario, with a log compaction before the heal for
// the mutation that breaks serving from a trimmed log, or the compute gate
// for the two that need something scheduled inside a computation — and the
// mutation-free run of every gate world must stay clean. This is the
// checker-validation loop — a mutation nobody can catch is dead weight, and
// a checker that alarms on the correct protocol is worse than none.
func TestMutationCorpus(t *testing.T) {
	cases := []struct {
		mutation core.Mutation
		// world names the gate world of a clean row ("" for gate6); a
		// mutated row hunts on the world gateFor picks for its mutation.
		world  string
		caught bool
		// errWant is a substring the violation must mention (empty for
		// clean rows). It pins each mutation to the failure class it was
		// seeded to produce, not just "something went wrong".
		errWant string
	}{
		{core.MutationNone, "", false, ""},
		{core.MutationNone, "compact", false, ""},
		{core.MutationNone, "computes", false, ""},
		{core.MutationAcceptStaleProposal, "", true, "diverge"},
		{core.MutationIgnoreEventOrder, "", true, "diverge"},
		{core.MutationUncappedPseudoProposal, "", true, "diverge"},
		{core.MutationTruncateWithoutCatchUp, "", true, "incomplete"},
		{core.MutationCompleteWithoutRecheck, "", true, "diverge"},
		{core.MutationNoInconsistencyCheck, "", true, "diverge"},
	}
	// The table must cover the whole corpus: a mutation added to core
	// without a row here fails the test rather than silently shipping
	// unvalidated.
	covered := map[core.Mutation]bool{}
	for _, tc := range cases {
		covered[tc.mutation] = true
	}
	if len(covered) != len(core.Mutations()) {
		t.Fatalf("corpus table covers %d mutations, core defines %d", len(covered), len(core.Mutations()))
	}
	for _, tc := range cases {
		name := tc.mutation.String()
		if tc.world != "" {
			name += "+" + tc.world
		}
		t.Run(name, func(t *testing.T) {
			cfg, scn := gateFor(t, tc.mutation)
			switch tc.world {
			case "compact":
				cfg, scn = gate6Compact(t)
			case "computes":
				cfg, scn = computeGate(t)
			}
			res, err := RandomWalk(cfg, scn, Options{Seed: 1, Walks: gateWalks})
			if err != nil {
				t.Fatal(err)
			}
			caught := res.Violation != nil
			if caught != tc.caught {
				if res.Violation != nil {
					t.Fatalf("mutation %v: caught=%v want %v: %v", tc.mutation, caught, tc.caught, res.Violation.Err)
				}
				t.Fatalf("mutation %v: caught=%v want %v; stats %+v", tc.mutation, caught, tc.caught, res.Stats)
			}
			if caught && !strings.Contains(res.Violation.Err.Error(), tc.errWant) {
				t.Fatalf("mutation %v: violation %q does not mention %q", tc.mutation, res.Violation.Err, tc.errWant)
			}
		})
	}
}

// TestWalkCleanGate: gateWalks random walks of the mutation-free gate world
// must produce no violation — the sampling search is aggressive, not
// unsound — and must show they explored it: every walk ran to a checked
// quiescent state, and so took every inject and fault of the scenario on
// the way.
func TestWalkCleanGate(t *testing.T) {
	cfg, scn := gate6(t)
	res, err := RandomWalk(cfg, scn, Options{Seed: 1, Walks: gateWalks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("false alarm on mutation-free gate: %v\ntrace:\n%s",
			res.Violation.Err, strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Quiescent != gateWalks || res.Stats.States != gateWalks {
		t.Fatalf("%d walks, %d quiescent states checked, %d clean; want %d of each",
			gateWalks, res.Stats.Quiescent, res.Stats.States, gateWalks)
	}
	if ops := len(scn.Injects) + len(scn.Faults); res.Stats.Transitions < gateWalks*ops {
		t.Fatalf("%d transitions over %d walks cannot cover the %d scenario operations of each", res.Stats.Transitions, gateWalks, ops)
	}
	t.Logf("clean gate: %d walks, %d transitions, deepest %d steps", res.Stats.States, res.Stats.Transitions, res.Stats.MaxDepthSeen)
}

// TestWalkCatchesGateCorpus: every seeded mutation in the corpus must be
// caught by gateWalks random walks on its gate world, and each
// counterexample must replay from its token to the same failure.
func TestWalkCatchesGateCorpus(t *testing.T) {
	for _, mu := range core.Mutations() {
		if mu == core.MutationNone {
			continue
		}
		t.Run(mu.String(), func(t *testing.T) {
			cfg, scn := gateFor(t, mu)
			res, err := RandomWalk(cfg, scn, Options{Seed: 1, Walks: gateWalks})
			if err != nil {
				t.Fatal(err)
			}
			v := res.Violation
			if v == nil {
				t.Fatalf("mutation %v not caught within %d walks; stats %+v", mu, gateWalks, res.Stats)
			}
			t.Logf("caught after %d clean walks: %v", res.Stats.States, v.Err)
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

// TestMutationRegistry pins the mutation name registry: String and
// ParseMutation must round-trip for every defined mutation, unknown
// names must be rejected, and out-of-range values must be invalid.
func TestMutationRegistry(t *testing.T) {
	all := core.Mutations()
	if len(all) < 4 {
		t.Fatalf("mutation corpus shrank to %d entries", len(all))
	}
	seen := map[string]bool{}
	for _, mu := range all {
		if !mu.Valid() {
			t.Fatalf("Mutations() returned invalid %v", mu)
		}
		name := mu.String()
		if seen[name] {
			t.Fatalf("duplicate mutation name %q", name)
		}
		seen[name] = true
		back, err := core.ParseMutation(name)
		if err != nil {
			t.Fatalf("ParseMutation(%q): %v", name, err)
		}
		if back != mu {
			t.Fatalf("ParseMutation(%q) = %v, want %v", name, back, mu)
		}
	}
	if _, err := core.ParseMutation("no-such-mutation"); err == nil {
		t.Fatal("ParseMutation accepted an unknown name")
	}
	if core.Mutation(99).Valid() {
		t.Fatal("Mutation(99) claims to be valid")
	}
}

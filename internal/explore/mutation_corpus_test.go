package explore

import (
	"strings"
	"testing"

	"dgmc/internal/core"
)

// TestMutationCorpus is the corpus table gate: every seeded mutation the
// checker knows must be caught on its gate world within the CI budget —
// the 6-switch gate scenario, with a log compaction before the heal for the
// mutation that breaks serving from a trimmed log, or the compute gate for
// the two that need something scheduled inside a computation — and the
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
			res, err := Guided(cfg, scn, Options{Budget: gateBudget})
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

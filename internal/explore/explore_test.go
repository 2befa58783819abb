package explore

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

func ring4(t *testing.T) *topo.Graph {
	t.Helper()
	g, err := topo.Ring(4, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func twoJoins() Scenario {
	return Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 2, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
	}}
}

// TestExhaustiveTwoJoinsClean is the headline soundness run: every
// interleaving of two concurrent joins on a 4-switch ring satisfies every
// invariant, and every schedule quiesces.
func TestExhaustiveTwoJoinsClean(t *testing.T) {
	res, err := Exhaustive(Config{Graph: ring4(t)}, twoJoins(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v\nschedule %v\ntrace:\n%s",
			res.Violation.Err, res.Violation.Schedule, strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Truncated {
		t.Fatalf("search truncated: %+v", res.Stats)
	}
	if res.Stats.Quiescent == 0 {
		t.Fatalf("no quiescent states checked: %+v", res.Stats)
	}
	t.Logf("stats: %+v", res.Stats)
}

// TestExhaustiveDeterministic: equal inputs produce identical stats (the
// whole search is replayable, not just individual schedules).
func TestExhaustiveDeterministic(t *testing.T) {
	var prev *Result
	for i := 0; i < 2; i++ {
		res, err := Exhaustive(Config{Graph: ring4(t)}, twoJoins(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatalf("non-deterministic search: run 1 %+v, run 2 %+v", prev.Stats, res.Stats)
		}
		r := *res
		prev = &r
	}
}

// TestMutationCaught is the checker-validation gate from the issue: with
// the seeded timestamp-comparison bug (the stamp dominance check of
// Figure 5 line 11 forced to true), exhaustive search must find an
// invariant violation, shrink it to at most 10 schedule steps, and emit a
// token that replays to the same failure.
func TestMutationCaught(t *testing.T) {
	cfg := Config{Graph: ring4(t), Mutation: core.MutationAcceptStaleProposal}
	res, err := Exhaustive(cfg, twoJoins(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatalf("seeded mutation not caught; stats %+v", res.Stats)
	}
	t.Logf("violation after %d steps: %v", len(v.Schedule), v.Err)

	shrunk := Shrink(cfg, twoJoins(), v.Schedule)
	if len(shrunk) > len(v.Schedule) {
		t.Fatalf("shrink grew the schedule: %d -> %d", len(v.Schedule), len(shrunk))
	}
	if len(shrunk) > 10 {
		t.Fatalf("shrunk counterexample has %d steps, want <= 10: %v", len(shrunk), shrunk)
	}
	t.Logf("shrunk schedule (%d steps): %v", len(shrunk), shrunk)

	// The shrunk schedule still violates, with a trace and a token.
	_, sv, err := Replay(cfg, twoJoins(), shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if sv == nil {
		t.Fatal("shrunk schedule no longer violates")
	}
	if len(sv.Trace) == 0 {
		t.Fatal("replay produced no trace")
	}

	// Token round-trip: decode and replay byte-for-byte.
	tcfg, tscn, tsched, err := DecodeToken(sv.Token)
	if err != nil {
		t.Fatalf("decode token %q: %v", sv.Token, err)
	}
	if tcfg.Mutation != core.MutationAcceptStaleProposal {
		t.Fatalf("token lost the mutation: %v", tcfg.Mutation)
	}
	_, tv, err := Replay(tcfg, tscn, tsched)
	if err != nil {
		t.Fatal(err)
	}
	if tv == nil {
		t.Fatal("token replay no longer violates")
	}
	if tv.Err.Error() != sv.Err.Error() {
		t.Fatalf("token replay found a different violation:\n direct: %v\n token:  %v", sv.Err, tv.Err)
	}
}

// TestMutationCleanSchedulesExist: the seeded bug is order-dependent —
// the fault-free canonical schedule (all choices 0) converges, which is
// exactly why exhaustive exploration is needed to catch it.
func TestMutationCleanSchedulesExist(t *testing.T) {
	cfg := Config{Graph: ring4(t), Mutation: core.MutationAcceptStaleProposal}
	out, err := runSchedule(cfg, twoJoins(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.violation != nil {
		t.Fatalf("canonical schedule already violates (%v); the bug would not need search", out.violation)
	}
}

// TestRandomWalkClean exercises walk mode on a fault-free scenario.
func TestRandomWalkClean(t *testing.T) {
	res, err := RandomWalk(Config{Graph: ring4(t)}, twoJoins(), Options{Walks: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation.Err)
	}
	if res.Stats.Quiescent != 64 {
		t.Fatalf("want 64 quiescent walks, got %d", res.Stats.Quiescent)
	}
}

// TestRandomWalkCatchesMutation: enough seeded walks also find the bug
// (and shrink it), independent of BFS.
func TestRandomWalkCatchesMutation(t *testing.T) {
	cfg := Config{Graph: ring4(t), Mutation: core.MutationAcceptStaleProposal}
	res, err := RandomWalk(cfg, twoJoins(), Options{Walks: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("256 walks at seed 7 found no violating schedule: %+v", res.Stats)
	}
	if len(res.Violation.Schedule) > 10 {
		t.Fatalf("walk counterexample not shrunk: %d steps", len(res.Violation.Schedule))
	}
}

// TestRandomWalkDeterministic pins what RandomWalk's doc comment promises:
// equal (cfg, scn, Seed, Walks) sample the same schedules, so a walk gate's
// verdict — its counterexample token, or its clean statistics — reproduces
// exactly.
func TestRandomWalkDeterministic(t *testing.T) {
	run := func(mu core.Mutation, walks int) *Result {
		cfg, scn := gate6(t)
		cfg.Mutation = mu
		res, err := RandomWalk(cfg, scn, Options{Seed: 1, Walks: walks})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(core.MutationAcceptStaleProposal, gateWalks), run(core.MutationAcceptStaleProposal, gateWalks)
	if a.Violation == nil || b.Violation == nil {
		t.Fatalf("accept-stale not caught: %+v", a.Stats)
	}
	if a.Violation.Token != b.Violation.Token || a.Stats != b.Stats {
		t.Fatalf("same seed, different walks:\n %s %+v\n %s %+v", a.Violation.Token, a.Stats, b.Violation.Token, b.Stats)
	}
	a, b = run(core.MutationNone, 256), run(core.MutationNone, 256)
	if a.Violation != nil || b.Violation != nil {
		t.Fatalf("false alarm on the clean gate: %v / %v", a.Violation, b.Violation)
	}
	if a.Stats != b.Stats {
		t.Fatalf("same seed, different clean walks:\n %+v\n %+v", a.Stats, b.Stats)
	}
}

// TestWalkCatchesWhatExhaustiveCannot is the contrast a sampling search
// exists for: on the gate world with uncapped-pseudo-proposal, random walks
// catch the mutation within the gate's walk count, while exhaustive search
// at a comparable state budget truncates without a violation and without
// ever reaching a quiescent state.
func TestWalkCatchesWhatExhaustiveCannot(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive contrast too slow for -short")
	}
	cfg, scn := gate6(t)
	cfg.Mutation = core.MutationUncappedPseudoProposal

	wres, err := RandomWalk(cfg, scn, Options{Seed: 1, Walks: gateWalks})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Violation == nil {
		t.Fatalf("random walks missed the mutation: %+v", wres.Stats)
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
	t.Logf("walks caught after %d clean walks; exhaustive truncated at %d states with %d quiescent",
		wres.Stats.States, eres.Stats.States, eres.Stats.Quiescent)
}

// TestDropWithResyncExplored: a drop budget with resync enabled explores
// fault branches and still finds no violation — every explored loss either
// gets repaired by gap recovery or ends outside the reliable-flooding
// guarantee without wedging any switch mid-recovery (the lossy quiescent
// check). Line topology keeps the space small.
func TestDropWithResyncExplored(t *testing.T) {
	g, err := topo.Line(2, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
	}}
	res, err := Exhaustive(Config{Graph: g, Resync: true, ResyncMaxRounds: 2, MaxDrops: 1}, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("drop+resync violation: %v\ntrace:\n%s", res.Violation.Err,
			strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Truncated {
		t.Fatalf("search truncated: %+v", res.Stats)
	}
	t.Logf("stats: %+v", res.Stats)
}

// TestRandomWalkDropResync samples the (much larger) 3-switch lossy
// space that exhaustive mode cannot afford: every sampled schedule must
// satisfy the lossy quiescent standard.
func TestRandomWalkDropResync(t *testing.T) {
	g, err := topo.Line(3, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 2, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
	}}
	cfg := Config{Graph: g, Resync: true, ResyncMaxRounds: 2, MaxDrops: 2, MaxDups: 1}
	res, err := RandomWalk(cfg, scn, Options{Walks: 128, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("lossy walk violation: %v\ntrace:\n%s", res.Violation.Err,
			strings.Join(res.Violation.Trace, "\n"))
	}
}

// TestDupExplored: duplicated LSAs within budget never break the
// invariants (per-origin ordered apply discards stale copies).
func TestDupExplored(t *testing.T) {
	g, err := topo.Line(3, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
	}}
	res, err := Exhaustive(Config{Graph: g, MaxDups: 1}, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("dup violation: %v", res.Violation.Err)
	}
}

// TestLinkFailureScenario: a join racing a link failure on a ring still
// converges in every interleaving (the ring stays connected).
func TestLinkFailureScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("state space too large for -short")
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
		{Switch: 2, Event: core.LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 2, B: 3, Down: true}}},
	}}
	res, err := Exhaustive(Config{Graph: ring4(t)}, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("link-failure violation: %v\ntrace:\n%s", res.Violation.Err,
			strings.Join(res.Violation.Trace, "\n"))
	}
	t.Logf("stats: %+v", res.Stats)
}

// TestConfigValidation covers the config error paths.
func TestConfigValidation(t *testing.T) {
	g := ring4(t)
	cases := []struct {
		name string
		cfg  Config
		scn  Scenario
	}{
		{"nil graph", Config{}, Scenario{}},
		{"drops without resync", Config{Graph: g, MaxDrops: 1}, Scenario{}},
		{"bad mutation", Config{Graph: g, Mutation: core.Mutation(99)}, Scenario{}},
		{"negative compute budget", Config{Graph: g, MaxComputes: -1}, Scenario{}},
		{"switch out of range", Config{Graph: g}, Scenario{Injects: []Inject{
			{Switch: 9, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}}}}},
		{"join without role", Config{Graph: g}, Scenario{Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join}}}}},
		{"unknown link", Config{Graph: g}, Scenario{Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 0, B: 2, Down: true}}}}}},
	}
	for _, tc := range cases {
		if _, err := NewWorld(tc.cfg, tc.scn); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestTokenRoundTrip checks the token codec over a non-trivial config.
func TestTokenRoundTrip(t *testing.T) {
	cfg := Config{
		Graph:           ring4(t),
		Algorithm:       route.NewIncremental(route.SPH{}),
		Kinds:           map[lsa.ConnID]mctree.Kind{1: mctree.ReceiverOnly},
		Resync:          true,
		ResyncMaxRounds: 4,
		MaxDrops:        1,
		MaxDups:         2,
	}
	scn := Scenario{Injects: []Inject{
		{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender}},
		{Switch: 3, Event: core.LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 3, B: 0, Down: true}}},
	}}
	sched := []int{0, 3, 1, 0, 7}
	tok, err := EncodeToken(cfg, scn, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tok, "dgmc-sched-v1:") {
		t.Fatalf("token %q missing prefix", tok)
	}
	dcfg, dscn, dsched, err := DecodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if dcfg.Graph.NumSwitches() != 4 || dcfg.Graph.NumLinks() != 4 {
		t.Fatalf("graph mangled: %d switches %d links", dcfg.Graph.NumSwitches(), dcfg.Graph.NumLinks())
	}
	if dcfg.Algorithm.Name() != cfg.Algorithm.Name() {
		t.Fatalf("algorithm mangled: %s", dcfg.Algorithm.Name())
	}
	if !dcfg.Resync || dcfg.ResyncMaxRounds != 4 || dcfg.MaxDrops != 1 || dcfg.MaxDups != 2 {
		t.Fatalf("config mangled: %+v", dcfg)
	}
	if dcfg.Kinds[1] != mctree.ReceiverOnly {
		t.Fatalf("kinds mangled: %v", dcfg.Kinds)
	}
	if len(dscn.Injects) != 2 || dscn.Injects[1].Event.Link.A != 3 {
		t.Fatalf("scenario mangled: %+v", dscn)
	}
	if len(dsched) != len(sched) {
		t.Fatalf("schedule mangled: %v", dsched)
	}
	for i := range sched {
		if dsched[i] != sched[i] {
			t.Fatalf("schedule mangled at %d: %v", i, dsched)
		}
	}
	// And the two sides hash identically step by step.
	w1, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(dcfg, dscn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sched)+8; i++ {
		if w1.hash() != w2.hash() {
			t.Fatalf("worlds diverge at step %d", i)
		}
		c := 0
		if i < len(sched) {
			c = sched[i]
		}
		_, ok1 := w1.applyIndex(c)
		_, ok2 := w2.applyIndex(c)
		if ok1 != ok2 {
			t.Fatalf("quiescence diverges at step %d", i)
		}
		if !ok1 {
			break
		}
	}
}

// TestTokenRejectsGarbage: malformed tokens error out, never panic.
func TestTokenRejectsGarbage(t *testing.T) {
	for _, tok := range []string{
		"",
		"dgmc-sched-v1:",
		"dgmc-sched-v1:!!!!",
		"dgmc-sched-v1:AAAA",
		"wrong-prefix:AAAA",
		"dgmc-sched-v1:" + strings.Repeat("A", 11),
	} {
		if _, _, _, err := DecodeToken(tok); err == nil {
			t.Errorf("token %q: decoded without error", tok)
		}
	}
}

// TestCloneIndependence: a cloned world evolves independently of its
// parent (the CloneWith deep-copy contract).
func TestCloneIndependence(t *testing.T) {
	w, err := NewWorld(Config{Graph: ring4(t)}, twoJoins())
	if err != nil {
		t.Fatal(err)
	}
	w.applyIndex(0) // inject join at switch 0
	h := w.hash()
	c := w.clone()
	if c.hash() != h {
		t.Fatal("clone hash differs from parent")
	}
	for { // run the clone to quiescence
		if _, ok := c.applyIndex(0); !ok {
			break
		}
	}
	if w.hash() != h {
		t.Fatal("running the clone mutated the parent")
	}
	if c.hash() == h {
		t.Fatal("clone did not advance")
	}
}

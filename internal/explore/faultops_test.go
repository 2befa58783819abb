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

// TestExhaustiveSplitHealConverges is the partition-tolerance gate: on a
// 4-switch ring, a split into {0,1}|{2,3} and its heal fire at EVERY point
// of every schedule — before, during, and after the join's flood, racing
// the parked-frame release and the reconciliation exchanges — and every
// interleaving must end fully converged (the strict quiescent standard:
// identical members, stamps, and topologies everywhere). This is the
// checker-level proof of the heal design: nothing a partition parks or a
// reconciliation replays may leave any switch behind.
func TestExhaustiveSplitHealConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("state space too large for -short")
	}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
			{Kind: FaultHeal},
		},
	}
	cfg := Config{Graph: ring4(t), Resync: true, ResyncMaxRounds: 2}
	res, err := Exhaustive(cfg, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("split/heal violation: %v\nschedule %v\ntrace:\n%s",
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

// TestExhaustiveSplitHealCrashRestart is the combined scenario of the CI
// model-checker gate: on a 4-switch line, a split/heal cycle followed by a
// crash and cold restart of an endpoint, exhaustively interleaved with a
// join. Crash schedules are held to the lossy quiescent standard —
// information a crash destroys may stay lost, but no switch may end
// silently wedged mid-recovery.
func TestExhaustiveSplitHealCrashRestart(t *testing.T) {
	g, err := topo.Line(4, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
			{Kind: FaultHeal},
			{Kind: FaultCrash, Switch: 3},
			{Kind: FaultRestart, Switch: 3},
		},
	}
	cfg := Config{Graph: g, Resync: true, ResyncMaxRounds: 2}
	res, err := Exhaustive(cfg, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("split/heal/crash violation: %v\nschedule %v\ntrace:\n%s",
			res.Violation.Err, res.Violation.Schedule, strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Truncated {
		t.Fatalf("search truncated: %+v", res.Stats)
	}
	t.Logf("stats: %+v", res.Stats)
}

// TestExhaustiveCrashRestartRecovers explores every interleaving of a
// crash and cold restart with two concurrent joins on a 2-switch line —
// including schedules that crash switch 1 before, between, and after the
// joins, and inject its join while the rejoin exchange is still in flight.
func TestExhaustiveCrashRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("state space too large for -short")
	}
	g, err := topo.Line(2, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
			{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultCrash, Switch: 1},
			{Kind: FaultRestart, Switch: 1},
		},
	}
	cfg := Config{Graph: g, Resync: true, ResyncMaxRounds: 2}
	res, err := Exhaustive(cfg, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("crash/restart violation: %v\nschedule %v\ntrace:\n%s",
			res.Violation.Err, res.Violation.Schedule, strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Truncated {
		t.Fatalf("search truncated: %+v", res.Stats)
	}
	t.Logf("stats: %+v", res.Stats)
}

// TestExhaustiveCompaction is the log-truncation gate: a switch trims its
// event log to nothing at EVERY point of every schedule, and the peer that
// then has to learn from it — across a healed partition, or blank after a
// crash — must still end up knowing everything the trimmed switch knows
// (exchange completeness) and converge as before. The same worlds with the
// catch-up removed (truncate-without-catchup) must be caught, and by that
// invariant: the omission is invisible to the convergence checks.
//
// Exhaustive search finishes for one event on the 4-switch line and for
// two on a 2-switch line, so the worlds are split that way: the line-4
// pair puts relays between the trimmed switch and the learner; the line-2
// trio takes switch 0 through join and leave, so the catch-up is served
// before, between and after the two events of one origin — a newer event
// racing it, an out-of-order one buffered beneath it, the role-0 "gone"
// form after the leave — to a blank peer, to the blank origin itself (its
// own counter recovered) and across a heal.
func TestExhaustiveCompaction(t *testing.T) {
	both := mctree.Sender | mctree.Receiver
	join := Inject{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: both}}
	leave := Inject{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Leave}}
	worlds := []struct {
		name    string
		n       int
		injects []Inject
		lane    []FaultOp
	}{
		{"line4/split-compact-heal", 4, []Inject{join}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
			{Kind: FaultCompact, Switch: 1},
			{Kind: FaultHeal},
		}},
		{"line4/crash-compact-restart", 4, []Inject{join}, []FaultOp{
			{Kind: FaultCrash, Switch: 3},
			{Kind: FaultCompact, Switch: 2},
			{Kind: FaultRestart, Switch: 3},
		}},
		{"line2/join-leave/blank-peer", 2, []Inject{join, leave}, []FaultOp{
			{Kind: FaultCrash, Switch: 1},
			{Kind: FaultCompact, Switch: 0},
			{Kind: FaultRestart, Switch: 1},
		}},
		{"line2/join-leave/blank-origin", 2, []Inject{join, leave}, []FaultOp{
			{Kind: FaultCrash, Switch: 0},
			{Kind: FaultCompact, Switch: 1},
			{Kind: FaultRestart, Switch: 0},
		}},
		{"line2/join-leave/heal", 2, []Inject{join, leave}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0}, {1}}},
			{Kind: FaultCompact, Switch: 0},
			{Kind: FaultHeal},
		}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			g, err := topo.Line(w.n, 5*time.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			scn := Scenario{Injects: w.injects, Faults: w.lane}
			cfg := Config{Graph: g, Resync: true, ResyncMaxRounds: 2}
			res, err := Exhaustive(cfg, scn, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation: %v\nschedule %v\ntrace:\n%s",
					res.Violation.Err, res.Violation.Schedule, strings.Join(res.Violation.Trace, "\n"))
			}
			if res.Stats.Truncated || res.Stats.Quiescent == 0 {
				t.Fatalf("search incomplete: %+v", res.Stats)
			}
			t.Logf("clean: %+v", res.Stats)

			cfg.Mutation = core.MutationTruncateWithoutCatchUp
			res, err = Exhaustive(cfg, scn, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("truncate-without-catchup not caught: %+v", res.Stats)
			}
			if !strings.Contains(res.Violation.Err.Error(), "incomplete") {
				t.Fatalf("caught by the wrong invariant: %v", res.Violation.Err)
			}
		})
	}
}

// TestRandomWalkMobility samples deep schedules combining a split/heal
// cycle, a crash/restart, drops, and a dup on the 4-switch ring — the
// model-checker twin of the runtime mobility soak. Every sampled schedule
// must satisfy the lossy quiescent standard.
func TestRandomWalkMobility(t *testing.T) {
	scn := twoJoins()
	scn.Faults = []FaultOp{
		{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 3}, {1, 2}}},
		{Kind: FaultHeal},
		{Kind: FaultCrash, Switch: 2},
		{Kind: FaultRestart, Switch: 2},
	}
	cfg := Config{Graph: ring4(t), Resync: true, ResyncMaxRounds: 2, MaxDrops: 1, MaxDups: 1}
	res, err := RandomWalk(cfg, scn, Options{Walks: 128, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("mobility walk violation: %v\nschedule %v\ntrace:\n%s",
			res.Violation.Err, res.Violation.Schedule, strings.Join(res.Violation.Trace, "\n"))
	}
	if res.Stats.Quiescent != 128 {
		t.Fatalf("want 128 quiescent walks, got %d", res.Stats.Quiescent)
	}
}

// TestFaultLaneValidation covers the static fault-lane checks.
func TestFaultLaneValidation(t *testing.T) {
	g := ring4(t)
	join := Inject{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}}
	split := FaultOp{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}}
	cases := []struct {
		name string
		cfg  Config
		ops  []FaultOp
	}{
		{"faults without resync", Config{Graph: g}, []FaultOp{split, {Kind: FaultHeal}}},
		{"unhealed split", Config{Graph: g, Resync: true}, []FaultOp{split}},
		{"heal without split", Config{Graph: g, Resync: true}, []FaultOp{{Kind: FaultHeal}}},
		{"double split", Config{Graph: g, Resync: true}, []FaultOp{split, split, {Kind: FaultHeal}, {Kind: FaultHeal}}},
		{"overlapping groups", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1, 2}, {2, 3}}}, {Kind: FaultHeal}}},
		{"incomplete groups", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2}}}, {Kind: FaultHeal}}},
		{"empty group", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1, 2, 3}, {}}}, {Kind: FaultHeal}}},
		{"single group", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1, 2, 3}}}, {Kind: FaultHeal}}},
		{"group switch out of range", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 9}}}, {Kind: FaultHeal}}},
		{"restart of live switch", Config{Graph: g, Resync: true}, []FaultOp{{Kind: FaultRestart, Switch: 0}}},
		{"double crash", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultCrash, Switch: 0}, {Kind: FaultCrash, Switch: 0},
			{Kind: FaultRestart, Switch: 0}, {Kind: FaultRestart, Switch: 0}}},
		{"dead at end", Config{Graph: g, Resync: true}, []FaultOp{{Kind: FaultCrash, Switch: 0}}},
		{"crash out of range", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultCrash, Switch: 7}, {Kind: FaultRestart, Switch: 7}}},
		{"crash during split", Config{Graph: g, Resync: true}, []FaultOp{
			split, {Kind: FaultCrash, Switch: 0}, {Kind: FaultRestart, Switch: 0}, {Kind: FaultHeal}}},
		{"split while dead", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultCrash, Switch: 0}, split, {Kind: FaultHeal}, {Kind: FaultRestart, Switch: 0}}},
		{"compact of dead switch", Config{Graph: g, Resync: true}, []FaultOp{
			{Kind: FaultCrash, Switch: 0}, {Kind: FaultCompact, Switch: 0}, {Kind: FaultRestart, Switch: 0}}},
		{"compact out of range", Config{Graph: g, Resync: true}, []FaultOp{{Kind: FaultCompact, Switch: 4}}},
		{"invalid kind", Config{Graph: g, Resync: true}, []FaultOp{{Kind: FaultKind(99)}}},
	}
	for _, tc := range cases {
		if _, err := NewWorld(tc.cfg, Scenario{Injects: []Inject{join}, Faults: tc.ops}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// And a well-formed lane passes.
	ok := []FaultOp{
		split, {Kind: FaultCompact, Switch: 1}, {Kind: FaultHeal},
		{Kind: FaultCrash, Switch: 3}, {Kind: FaultCompact, Switch: 2}, {Kind: FaultRestart, Switch: 3},
	}
	if _, err := NewWorld(Config{Graph: g, Resync: true}, Scenario{Injects: []Inject{join}, Faults: ok}); err != nil {
		t.Errorf("valid lane rejected: %v", err)
	}
}

// TestTokenV2RoundTrip checks the fault-lane token extension: scenarios
// with fault operations encode under the v2 prefix and round-trip exactly
// (including step-by-step hash equality of the replayed world), while
// fault-free scenarios keep emitting v1 tokens.
func TestTokenV2RoundTrip(t *testing.T) {
	cfg := Config{Graph: ring4(t), Resync: true, ResyncMaxRounds: 2}
	scn := twoJoins()
	scn.Faults = []FaultOp{
		{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
		{Kind: FaultHeal},
		{Kind: FaultCrash, Switch: 2},
		{Kind: FaultRestart, Switch: 2},
		{Kind: FaultCompact, Switch: 1},
	}
	sched := []int{2, 0, 5, 1, 0}
	tok, err := EncodeToken(cfg, scn, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tok, "dgmc-sched-v2:") {
		t.Fatalf("fault-lane token %q not v2", tok)
	}
	dcfg, dscn, dsched, err := DecodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(dscn.Faults) != 5 {
		t.Fatalf("fault lane mangled: %+v", dscn.Faults)
	}
	if dscn.Faults[0].Kind != FaultSplit || len(dscn.Faults[0].Groups) != 2 ||
		len(dscn.Faults[0].Groups[1]) != 2 || dscn.Faults[0].Groups[1][1] != 3 {
		t.Fatalf("split op mangled: %+v", dscn.Faults[0])
	}
	if dscn.Faults[2].Kind != FaultCrash || dscn.Faults[2].Switch != 2 {
		t.Fatalf("crash op mangled: %+v", dscn.Faults[2])
	}
	if dscn.Faults[4].Kind != FaultCompact || dscn.Faults[4].Switch != 1 {
		t.Fatalf("compact op mangled: %+v", dscn.Faults[4])
	}
	if len(dsched) != len(sched) {
		t.Fatalf("schedule mangled: %v", dsched)
	}
	// The decoded side replays hash-identically.
	w1, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(dcfg, dscn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sched)+32; i++ {
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

	// Fault-free scenarios still produce v1 tokens.
	tok1, err := EncodeToken(Config{Graph: ring4(t)}, twoJoins(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tok1, "dgmc-sched-v1:") {
		t.Fatalf("fault-free token %q not v1", tok1)
	}
}

// TestExhaustiveFaultsDeterministic: the fault-extended search is as
// replayable as the base one — equal inputs, identical stats.
func TestExhaustiveFaultsDeterministic(t *testing.T) {
	g, err := topo.Line(3, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
		},
		Faults: []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0}, {1, 2}}},
			{Kind: FaultHeal},
		},
	}
	cfg := Config{Graph: g, Resync: true, ResyncMaxRounds: 2}
	var prev *Result
	for i := 0; i < 2; i++ {
		res, err := Exhaustive(cfg, scn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("violation: %v\ntrace:\n%s", res.Violation.Err, strings.Join(res.Violation.Trace, "\n"))
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatalf("non-deterministic search: run 1 %+v, run 2 %+v", prev.Stats, res.Stats)
		}
		r := *res
		prev = &r
	}
}

package explore

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// lineWorld is the 4-switch line of the fault-lane CI lines: a join at
// switch 0 against the given fault lane, with gap recovery on.
func lineWorld(t *testing.T, lane ...FaultOp) (Config, Scenario) {
	t.Helper()
	g, err := topo.Line(4, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	scn := Scenario{
		Injects: []Inject{{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}}},
		Faults:  lane,
	}
	return Config{Graph: g, Resync: true, ResyncMaxRounds: 2}, scn
}

// splitCompactHeal is the line-4 world in which switch 1 trims its log
// while the line is cut between switches 1 and 2.
func splitCompactHeal(t *testing.T) (Config, Scenario) {
	return lineWorld(t,
		FaultOp{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
		FaultOp{Kind: FaultCompact, Switch: 1},
		FaultOp{Kind: FaultHeal},
	)
}

// TestExhaustiveReachableSetPinned pins the exact reachable set of the fast
// CI worlds: a search that loses a state, or expands one twice, moves a
// count. The order of the search is free; what it reaches is not.
func TestExhaustiveReachableSetPinned(t *testing.T) {
	join := func(s topo.SwitchID) Inject {
		return Inject{Switch: s, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}}
	}
	cut := FaultOp{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}}
	worlds := []struct {
		name  string
		world func(*testing.T) (Config, Scenario)
		want  [3]int // States, Transitions, Quiescent
	}{
		{"ring4/join@0,join@2", func(t *testing.T) (Config, Scenario) {
			return Config{Graph: ring4(t)}, Scenario{Injects: []Inject{join(0), join(2)}}
		}, [3]int{1117, 3702, 20}},
		{"line4/split-heal-crash-restart", func(t *testing.T) (Config, Scenario) {
			return lineWorld(t, cut, FaultOp{Kind: FaultHeal},
				FaultOp{Kind: FaultCrash, Switch: 3}, FaultOp{Kind: FaultRestart, Switch: 3})
		}, [3]int{4046, 16700, 9}},
		{"line4/split-compact-heal", splitCompactHeal, [3]int{7019, 36123, 12}},
		{"line4/crash-compact-restart", func(t *testing.T) (Config, Scenario) {
			return lineWorld(t, FaultOp{Kind: FaultCrash, Switch: 3},
				FaultOp{Kind: FaultCompact, Switch: 2}, FaultOp{Kind: FaultRestart, Switch: 3})
		}, [3]int{400, 1389, 4}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			cfg, scn := w.world(t)
			res, err := Exhaustive(cfg, scn, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil || res.Stats.Truncated {
				t.Fatalf("search not clean and complete: %+v %v", res.Stats, res.Violation)
			}
			if got := [3]int{res.Stats.States, res.Stats.Transitions, res.Stats.Quiescent}; got != w.want {
				t.Fatalf("(states, transitions, quiescent) = %v, want %v", got, w.want)
			}
		})
	}
}

// TestExhaustiveHeapBoundedByDepth: the search keeps one world per schedule
// step, not a frontier of them, so the live heap stays small while it
// drains the 7 019 states of the line-4 split/compact/heal world. A
// breadth-first queue of cloned worlds holds about 25 MB live here.
func TestExhaustiveHeapBoundedByDepth(t *testing.T) {
	const maxLive = 8 << 20
	cfg, scn := splitCompactHeal(t)
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	base := read()
	done := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-done:
				peakc <- peak
				return
			case <-tick.C:
			}
		}
	}()
	res, err := Exhaustive(cfg, scn, Options{})
	close(done)
	peak := <-peakc
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || res.Stats.Truncated {
		t.Fatalf("search not clean and complete: %+v %v", res.Stats, res.Violation)
	}
	t.Logf("live heap: %.1f MB before, peak %.1f MB over %d states", float64(base)/(1<<20), float64(peak)/(1<<20), res.Stats.States)
	if peak > maxLive {
		t.Fatalf("peak live heap %d B exceeds %d B", peak, maxLive)
	}
}

// TestExhaustiveCatchesUncappedOnGate: depth-first search reaches the deep
// schedules of the gate world early, and catches uncapped-pseudo-proposal
// there within the state budget the walk contrast uses. The counterexample
// replays from its token to the same failure.
func TestExhaustiveCatchesUncappedOnGate(t *testing.T) {
	cfg, scn := gate6(t)
	cfg.Mutation = core.MutationUncappedPseudoProposal
	res, err := Exhaustive(cfg, scn, Options{MaxStates: 20000})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatalf("uncapped-pseudo-proposal not caught within 20 000 states: %+v", res.Stats)
	}
	t.Logf("caught after %d states, %d-step schedule: %v", res.Stats.States, len(v.Schedule), v.Err)
	tcfg, tscn, tsched, err := DecodeToken(v.Token)
	if err != nil {
		t.Fatalf("decode token: %v", err)
	}
	_, tv, err := Replay(tcfg, tscn, tsched)
	if err != nil {
		t.Fatal(err)
	}
	if tv == nil || tv.Err.Error() != v.Err.Error() {
		t.Fatalf("token replay does not reproduce the failure:\n search: %v\n token:  %v", v.Err, tv)
	}
}

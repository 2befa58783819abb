package main

import (
	"errors"
	"regexp"
	"strings"
	"testing"
)

// TestExhaustiveRing4Clean is the CI gate from the issue: a 4-switch ring
// with two concurrent joins explores to quiescence with zero invariant
// violations.
func TestExhaustiveRing4Clean(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "ring", "-n", "4", "-scenario", "join@0,join@2", "-mode", "exhaustive"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no invariant violations: every reachable interleaving converges") {
		t.Fatalf("missing exhaustive verdict:\n%s", out.String())
	}
}

// TestMutationFoundAndReplayable: the seeded timestamp-comparison bug is
// caught, the reported schedule is minimal (<= 10 steps), and the printed
// token reproduces the same violation through the -replay path.
func TestMutationFoundAndReplayable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "ring", "-n", "4", "-scenario", "join@0,join@2", "-mutate", "accept-stale"}, &out)
	if !errors.Is(err, errViolation) {
		t.Fatalf("want errViolation, got %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "VIOLATION") {
		t.Fatalf("no violation report:\n%s", text)
	}
	m := regexp.MustCompile(`schedule \((\d+) steps\)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no schedule line:\n%s", text)
	}
	if len(m[1]) > 2 || (len(m[1]) == 2 && m[1] > "10") {
		t.Fatalf("counterexample not minimal: %s steps\n%s", m[1], text)
	}
	tok := regexp.MustCompile(`dgmc-sched-v1:[A-Za-z0-9_-]+`).FindString(text)
	if tok == "" {
		t.Fatalf("no replay token:\n%s", text)
	}

	var replayOut strings.Builder
	err = run([]string{"-replay", tok}, &replayOut)
	if !errors.Is(err, errViolation) {
		t.Fatalf("replay: want errViolation, got %v\n%s", err, replayOut.String())
	}
	if !strings.Contains(replayOut.String(), "VIOLATION reproduced") {
		t.Fatalf("replay did not reproduce:\n%s", replayOut.String())
	}
	// Both runs must report the same invariant failure.
	extract := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "stamps diverge") || strings.Contains(line, "diverge") {
				return strings.TrimSpace(line)
			}
		}
		return ""
	}
	if d1, d2 := extract(text), extract(replayOut.String()); d1 == "" || d1 != d2 {
		t.Fatalf("violation mismatch:\n search: %q\n replay: %q", d1, d2)
	}
}

// TestWalkMode: seeded random walks run clean on a fault-free scenario.
func TestWalkMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "line", "-n", "3", "-scenario", "join@0,join@2",
		"-mode", "walk", "-walks", "64", "-seed", "3"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no invariant violations in 64 sampled schedules") {
		t.Fatalf("missing walk verdict:\n%s", out.String())
	}
}

// TestLossyWalk: drop/dup budgets with resync hold the lossy quiescent
// standard across sampled schedules.
func TestLossyWalk(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "line", "-n", "3", "-scenario", "join@0,join@2",
		"-mode", "walk", "-walks", "64", "-seed", "5", "-resync", "-drops", "1", "-dups", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

// TestSplitHealCrashGate is the model-checker CI gate from the issue: on a
// 4-switch line, a partition/heal cycle followed by a crash and cold
// restart of an endpoint, exhaustively interleaved with a join — zero
// violations in every reachable schedule.
func TestSplitHealCrashGate(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "line", "-n", "4", "-resync",
		"-scenario", "join@0,split@0.1|2.3,heal,crash@3,restart@3"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no invariant violations: every reachable interleaving converges") {
		t.Fatalf("missing exhaustive verdict:\n%s", out.String())
	}
}

// TestFaultDSL covers the fault-lane verbs: parse errors, the resync
// requirement, and lane-level validation surfacing through the CLI.
func TestFaultDSL(t *testing.T) {
	for _, bad := range []string{
		"join@0,split@0.x|2.3,heal", // bad switch in a group
		"join@0,crash@x",            // bad crash target
		"join@0,restart@y",          // bad restart target
	} {
		var out strings.Builder
		if err := run([]string{"-topo", "line", "-n", "4", "-resync", "-scenario", bad}, &out); err == nil || errors.Is(err, errViolation) {
			t.Errorf("scenario %q: want parse error, got %v", bad, err)
		}
	}
	for _, bad := range []string{
		"join@0,split@0.1|2.3,heal",          // faults without -resync (flag omitted below)
		"join@0,heal",                        // heal without a split
		"join@0,crash@1",                     // lane ends with a dead switch
		"join@0,split@0.1|2.3,crash@3,heal",  // crash during a split
		"join@0,split@0.1|2.3,split@0|1.2.3", // nested split
	} {
		args := []string{"-topo", "line", "-n", "4", "-scenario", bad}
		if bad != "join@0,split@0.1|2.3,heal" {
			args = append(args, "-resync")
		}
		var out strings.Builder
		if err := run(args, &out); err == nil || errors.Is(err, errViolation) {
			t.Errorf("scenario %q: want lane validation error, got %v", bad, err)
		}
	}
}

// TestScenarioDSL covers the event grammar, including link events and
// connection suffixes.
func TestScenarioDSL(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "ring", "-n", "4", "-mode", "walk", "-walks", "16", "-seed", "9",
		"-scenario", "join@0/2,join@1/2,fail@2-3,restore@2-3"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	for _, bad := range []string{
		"", "jump@0", "join@x", "fail@2", "fail@a-b", "join@0/0", "join@0/x",
	} {
		if err := run([]string{"-scenario", bad}, &out); err == nil || errors.Is(err, errViolation) {
			t.Errorf("scenario %q: want parse error, got %v", bad, err)
		}
	}
}

// TestBadFlags covers flag validation paths.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "torus"},
		{"-mode", "dfs"},
		{"-mutate", "off-by-one"},
		{"-alg", "magic"},
		{"-topo", "ring", "-n", "2"},
		{"-drops", "1"}, // drops without -resync
		{"-replay", "dgmc-sched-v1:zzz"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// gateArgs is the CI gate scenario: a 6-switch ring with a join/leave
// pair at switch 0, joins at 1 and 3, and a 3|3 split/heal — far beyond
// what exhaustive search can drain within a CI state budget.
func gateArgs(extra ...string) []string {
	args := []string{"-topo", "ring", "-n", "6", "-resync",
		"-scenario", "join@0,leave@0,join@1,join@3,split@0.1.2|3.4.5,heal"}
	return append(args, extra...)
}

// TestWalkGateClean: 1 024 seeded walks of the mutation-free gate scenario
// each run to a checked quiescent state, and the summary counts them. CI
// runs the same world at 4 096.
func TestWalkGateClean(t *testing.T) {
	var out strings.Builder
	err := run(gateArgs("-mode", "walk", "-walks", "1024"), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if text := out.String(); !strings.Contains(text, "1024 quiescent states") ||
		!strings.Contains(text, "no invariant violations in 1024 sampled schedules") {
		t.Fatalf("missing walk verdict:\n%s", text)
	}
}

// TestWalkGateCatchesCorpus: every gate mutation is caught by 1 024 walks
// of the gate scenario, and each printed v2 token reproduces the violation
// through -replay.
func TestWalkGateCatchesCorpus(t *testing.T) {
	for _, mu := range []string{"accept-stale", "ignore-event-order", "uncapped-pseudo-proposal"} {
		t.Run(mu, func(t *testing.T) {
			var out strings.Builder
			err := run(gateArgs("-mode", "walk", "-walks", "1024", "-mutate", mu), &out)
			if !errors.Is(err, errViolation) {
				t.Fatalf("want errViolation, got %v\n%s", err, out.String())
			}
			tok := regexp.MustCompile(`dgmc-sched-v2:[A-Za-z0-9_-]+`).FindString(out.String())
			if tok == "" {
				t.Fatalf("no v2 replay token:\n%s", out.String())
			}
			var replayOut strings.Builder
			if err := run([]string{"-replay", tok}, &replayOut); !errors.Is(err, errViolation) {
				t.Fatalf("replay: want errViolation, got %v\n%s", err, replayOut.String())
			}
		})
	}
}

// TestSearchFlagValidation: the checker has two searches, -mode exhaustive
// and -mode walk. There is no guided or backward mode, and no -budget or
// -guided flag; each is a flag error. Negative bounds are flag
// errors too, and -walks 0 means the default, counted as run.
func TestSearchFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "guided"},
		{"-mode", "backward"},
		{"-budget", "200000"},
		{"-guided"},
		{"-mode", "walk", "-walks", "-3"},
		{"-depth", "-1"},
		{"-max-states", "-1"},
	} {
		var out strings.Builder
		if err := run(gateArgs(args...), &out); err == nil || errors.Is(err, errViolation) {
			t.Errorf("args %v: want flag error, got %v", args, err)
		}
	}
	var out strings.Builder
	if err := run([]string{"-mode", "walk", "-walks", "0"}, &out); err != nil {
		t.Fatalf("-walks 0: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no invariant violations in 256 sampled schedules") {
		t.Fatalf("-walks 0 must report the 256 walks it ran:\n%s", out.String())
	}
}

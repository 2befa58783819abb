package main

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestComputeRaceGates checks, on the production machine, every world the
// abstract model checker this repository once carried used to check: a full mesh of n
// switches, one connection, membership events at the listed switches, and a
// compute budget that leaves topology computations pending so that
// anything can be scheduled between a computation's begin and its
// completion. Each subtest is named after the model test whose scenario it
// carries. At a budget marked "every", every computation of every schedule
// is split. The two worlds the
// model needed a million states for do not finish here (300 000 states
// reach depth 11 and no quiescent state) and run as 4 096 seeded walks.
func TestComputeRaceGates(t *testing.T) {
	gates := []struct {
		name     string
		n        int
		scenario string
		computes int // "every": raising it adds no state
		walks    int // 0 = exhaustive
	}{
		{"SingleJoin/n2", 2, "join@0", 2, 0},                        // every
		{"SingleJoin/n3", 3, "join@0", 2, 0},                        // every
		{"SingleJoin/n4", 4, "join@2", 2, 0},                        // every
		{"ConcurrentJoins/n2", 2, "join@0,join@1", 4, 0},            // every
		{"ConcurrentJoins/n3", 3, "join@0,join@1", 4, 0},            // every
		{"ConcurrentJoins/n3-all", 3, "join@0,join@1,join@2", 1, 0}, // CI runs -computes 3
		{"JoinLeaveRaces/n3", 3, "join@0,join@1,leave@1", 10, 0},    // every
		{"JoinLeaveRaces/n3-all", 3, "join@0,join@1,join@2,leave@2", 4, 4096},
		{"FourSwitchBurst", 4, "join@0,join@1,join@2", 3, 4096},
		{"ResurrectionRaces/n2", 2, "join@0,leave@0,join@1", 8, 0}, // every
		{"ResurrectionRaces/n3", 3, "join@0,leave@0,join@1", 3, 0},
		{"CrossingLeaveAndJoin", 3, "join@0,leave@0,join@2", 3, 0},
		{"SameSwitchChurn", 2, "join@0,join@1,leave@1,join@1", 12, 0}, // every
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			args := []string{"-topo", "full", "-n", strconv.Itoa(g.n), "-computes", strconv.Itoa(g.computes), "-scenario", g.scenario}
			if g.walks > 0 {
				args = append(args, "-mode", "walk", "-walks", strconv.Itoa(g.walks))
			}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("run %v: %v\n%s", args, err, out.String())
			}
			text := out.String()
			// Printed only by an exhaustive search that no bound cut short.
			if g.walks == 0 && !strings.Contains(text, "no invariant violations: every reachable interleaving converges") {
				t.Fatalf("exhaustive gate did not finish:\n%s", text)
			}
			if m := regexp.MustCompile(`, (\d+) quiescent states`).FindStringSubmatch(text); m == nil || m[1] == "0" {
				t.Fatalf("no quiescent state checked:\n%s", text)
			}
			t.Log(strings.Split(text, "\n")[1])
		})
	}
}

// TestComputeMutationsCaught: the two seeded bugs that only a schedule with
// something between a computation's begin and its completion (or, for the
// second, two crossing proposals) exposes are caught exhaustively, shrink
// to a short schedule, and replay from their token. complete-without-recheck
// on the same world at budget 0 is clean: the completion choice point, not
// an older one, is what catches it.
func TestComputeMutationsCaught(t *testing.T) {
	for _, tc := range []struct {
		mutation, n, scenario string
	}{
		{"complete-without-recheck", "3", "join@0,join@1"},
		{"no-inconsistency-check", "2", "join@0,join@1"}, // the model's own sabotage, on its world
	} {
		t.Run(tc.mutation, func(t *testing.T) {
			args := []string{"-topo", "full", "-n", tc.n, "-scenario", tc.scenario, "-mutate", tc.mutation}
			var out strings.Builder
			err := run(append(args, "-computes", "2"), &out)
			if !errors.Is(err, errViolation) {
				t.Fatalf("want errViolation, got %v\n%s", err, out.String())
			}
			text := out.String()
			m := regexp.MustCompile(`schedule \((\d+) steps\)`).FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("no schedule line:\n%s", text)
			}
			if steps, _ := strconv.Atoi(m[1]); steps > 12 {
				t.Fatalf("counterexample not minimal: %d steps\n%s", steps, text)
			}
			tok := regexp.MustCompile(`dgmc-sched-v3:[A-Za-z0-9_-]+`).FindString(text)
			if tok == "" {
				t.Fatalf("no v3 replay token:\n%s", text)
			}
			var replayOut strings.Builder
			if err := run([]string{"-replay", tok}, &replayOut); !errors.Is(err, errViolation) {
				t.Fatalf("replay: want errViolation, got %v\n%s", err, replayOut.String())
			}
			violation := func(s string) string {
				for _, line := range strings.Split(s, "\n") {
					if strings.Contains(line, "quiescent:") {
						return strings.TrimSpace(line)
					}
				}
				return ""
			}
			if v1, v2 := violation(text), violation(replayOut.String()); v1 == "" || v1 != v2 {
				t.Fatalf("violation mismatch:\n search: %q\n replay: %q", v1, v2)
			}
		})
	}

	var out strings.Builder
	err := run([]string{"-topo", "full", "-n", "3", "-scenario", "join@0,join@1", "-mutate", "complete-without-recheck"}, &out)
	if err != nil || !strings.Contains(out.String(), "every reachable interleaving converges") {
		t.Fatalf("complete-without-recheck must be invisible at -computes 0: %v\n%s", err, out.String())
	}
}

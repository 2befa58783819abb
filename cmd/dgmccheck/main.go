// Command dgmccheck model-checks the D-GMC implementation itself: it
// drives the production core.Machine through every (bounded) interleaving
// of LSA deliveries, local events, network faults, resync timer firings
// and — within -computes — topology-computation completions, checking
// invariants after every transition and at every quiescent state (see
// internal/explore). It stands in for the correctness proofs the paper
// omits (§3.6), on the code that ships.
//
//	dgmccheck -topo ring -n 4 -scenario join@0,join@2
//	dgmccheck -topo full -n 3 -computes 3 -scenario join@0,join@1,leave@1
//	dgmccheck -topo line -n 3 -mode walk -walks 500 -seed 1 -resync -drops 1
//	dgmccheck -topo line -n 4 -resync -scenario join@0,split@0.1|2.3,heal,crash@3,restart@3
//	dgmccheck -topo ring -n 5 -resync -scenario join@0,leave@0,join@1,split@0.1|2.3.4,compact@1,heal
//	dgmccheck -topo ring -n 6 -resync -mode walk -walks 1024 \
//	    -scenario join@0,leave@0,join@1,join@3,split@0.1.2|3.4.5,heal
//	dgmccheck -mutate accept-stale            # seeded bug: must report a violation
//	dgmccheck -replay dgmc-sched-v1:...       # re-execute a counterexample token
//
// On a violation it prints the minimized schedule, a replay token, and the
// counterexample trace, then exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/explore"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgmccheck:", err)
		os.Exit(1)
	}
}

var errViolation = errors.New("invariant violation found")

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgmccheck", flag.ContinueOnError)
	fs.SetOutput(w)
	topoName := fs.String("topo", "ring", "topology: ring, line, or full")
	n := fs.Int("n", 4, "number of switches")
	algName := fs.String("alg", "sph", "topology algorithm: sph, kmb, spt, cbt, or incremental")
	scenario := fs.String("scenario", "join@0,join@2",
		"comma-separated events: join@S, leave@S, fail@A-B, restore@A-B (append /C for a connection other than 1); "+
			"fault lane: split@0.1|2.3 (groups of dot-separated switches), heal, crash@S, restart@S, compact@S (require -resync)")
	mode := fs.String("mode", "exhaustive", "search mode: exhaustive (depth-first) or walk (seeded random schedules)")
	maxStates := fs.Int("max-states", 0, "exhaustive: max distinct states (0 = default 2000000)")
	walks := fs.Int("walks", 256, "walk: number of random schedules (0 = default 256)")
	seed := fs.Int64("seed", 1, "walk: RNG seed")
	resync := fs.Bool("resync", false, "enable gap recovery (timer firings become schedule choices)")
	resyncRounds := fs.Int("resync-rounds", 2, "resync round budget per gap")
	drops := fs.Int("drops", 0, "message-drop budget per schedule (requires -resync)")
	dups := fs.Int("dups", 0, "message-duplication budget per schedule")
	computes := fs.Int("computes", 0, "budget of topology computations per schedule left pending between begin and completion (completing one becomes a schedule choice)")
	mutate := fs.String("mutate", "none", "seed a known bug: "+strings.Join(mutationNames(), ", "))
	replay := fs.String("replay", "", "replay a counterexample token instead of searching")
	verbose := fs.Bool("v", false, "print the full counterexample trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replay != "" {
		return runReplay(w, *replay, *verbose)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"walks", *walks}, {"max-states", *maxStates}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", f.name, f.v)
		}
	}

	g, err := buildTopo(*topoName, *n)
	if err != nil {
		return err
	}
	alg, err := route.ByName(*algName)
	if err != nil {
		return err
	}
	mutation, err := core.ParseMutation(*mutate)
	if err != nil {
		return fmt.Errorf("%w (want one of %s)", err, strings.Join(mutationNames(), ", "))
	}
	scn, err := parseScenario(*scenario, g)
	if err != nil {
		return err
	}
	cfg := explore.Config{
		Graph:           g,
		Algorithm:       alg,
		Resync:          *resync,
		ResyncMaxRounds: *resyncRounds,
		MaxDrops:        *drops,
		MaxDups:         *dups,
		MaxComputes:     *computes,
		Mutation:        mutation,
	}
	opt := explore.Options{MaxStates: *maxStates, Walks: *walks, Seed: *seed}

	fmt.Fprintf(w, "checking %s on %s-%d (%s), mode %s\n", *scenario, *topoName, *n, alg.Name(), *mode)
	start := time.Now()
	var res *explore.Result
	switch *mode {
	case "exhaustive":
		res, err = explore.Exhaustive(cfg, scn, opt)
	case "walk":
		res, err = explore.RandomWalk(cfg, scn, opt)
	default:
		return fmt.Errorf("unknown mode %q (want exhaustive or walk)", *mode)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	if v := res.Violation; v != nil {
		fmt.Fprintf(w, "VIOLATION after %d states / %d transitions (%v):\n  %v\n",
			res.Stats.States, res.Stats.Transitions, elapsed, v.Err)
		fmt.Fprintf(w, "schedule (%d steps): %v\n", len(v.Schedule), v.Schedule)
		fmt.Fprintf(w, "replay with:\n  dgmccheck -replay %s\n", v.Token)
		printTrace(w, v.Trace, *verbose)
		return errViolation
	}

	fmt.Fprintf(w, "explored: %d states, %d transitions, %d quiescent states in %v\n",
		res.Stats.States, res.Stats.Transitions, res.Stats.Quiescent, elapsed)
	if *mode == "exhaustive" {
		fmt.Fprintf(w, "deepest stack: %d steps\n", res.Stats.MaxStack)
	} else {
		fmt.Fprintf(w, "longest walk: %d steps\n", res.Stats.MaxStack)
	}
	if res.Stats.Truncated {
		fmt.Fprintf(w, "WARNING: search truncated by -max-states; absence of violations is not exhaustive\n")
	} else if *mode == "exhaustive" {
		fmt.Fprintf(w, "no invariant violations: every reachable interleaving converges\n")
	} else {
		fmt.Fprintf(w, "no invariant violations in %d sampled schedules\n", res.Stats.Quiescent)
	}
	return nil
}

func mutationNames() []string {
	var names []string
	for _, mu := range core.Mutations() {
		names = append(names, mu.String())
	}
	return names
}

func runReplay(w io.Writer, token string, verbose bool) error {
	cfg, scn, sched, err := explore.DecodeToken(token)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replaying %d-step schedule on %d switches (%s)\n",
		len(sched), cfg.Graph.NumSwitches(), cfg.Algorithm.Name())
	_, v, err := explore.Replay(cfg, scn, sched)
	if err != nil {
		return err
	}
	if v == nil {
		fmt.Fprintf(w, "schedule completed with no invariant violation\n")
		return nil
	}
	fmt.Fprintf(w, "VIOLATION reproduced:\n  %v\n", v.Err)
	printTrace(w, v.Trace, verbose)
	return errViolation
}

func printTrace(w io.Writer, trace []string, verbose bool) {
	const headLines = 30
	fmt.Fprintf(w, "trace (%d lines):\n", len(trace))
	for i, line := range trace {
		if !verbose && i >= headLines {
			fmt.Fprintf(w, "  ... %d more lines (-v for the full trace)\n", len(trace)-headLines)
			break
		}
		fmt.Fprintf(w, "  %s\n", line)
	}
}

func buildTopo(name string, n int) (*topo.Graph, error) {
	const d = 5 * time.Microsecond
	switch name {
	case "ring":
		return topo.Ring(n, d)
	case "line":
		return topo.Line(n, d)
	case "full":
		return topo.Full(n, d)
	default:
		return nil, fmt.Errorf("unknown topology %q (want ring, line, or full)", name)
	}
}

// parseScenario parses the event DSL: comma-separated join@S, leave@S,
// fail@A-B, restore@A-B, each optionally suffixed /C to address connection
// C (default 1). Link events are detected by their A endpoint. Fault-lane
// operations ride in the same list but keep program order among themselves:
// split@0.1|2.3 (groups separated by '|', members by '.'), heal, crash@S,
// restart@S, compact@S (trim S's event logs to nothing at that point).
func parseScenario(s string, g *topo.Graph) (explore.Scenario, error) {
	var scn explore.Scenario
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if op, ok, err := parseFaultOp(part); err != nil {
			return scn, err
		} else if ok {
			scn.Faults = append(scn.Faults, op)
			continue
		}
		spec := part
		conn := lsa.ConnID(1)
		if body, connStr, ok := strings.Cut(part, "/"); ok {
			c, err := strconv.ParseUint(connStr, 10, 32)
			if err != nil || c == 0 {
				return scn, fmt.Errorf("bad connection in %q", part)
			}
			conn = lsa.ConnID(c)
			spec = body
		}
		verb, arg, ok := strings.Cut(spec, "@")
		if !ok {
			return scn, fmt.Errorf("bad event %q (want verb@arg)", part)
		}
		switch verb {
		case "join", "leave":
			sw, err := strconv.Atoi(arg)
			if err != nil {
				return scn, fmt.Errorf("bad switch in %q", part)
			}
			ev := core.LocalEvent{Conn: conn, Kind: lsa.Leave}
			if verb == "join" {
				ev.Kind = lsa.Join
				ev.Role = mctree.SenderReceiver
			}
			scn.Injects = append(scn.Injects, explore.Inject{Switch: topo.SwitchID(sw), Event: ev})
		case "fail", "restore":
			aStr, bStr, ok := strings.Cut(arg, "-")
			if !ok {
				return scn, fmt.Errorf("bad link in %q (want %s@A-B)", part, verb)
			}
			a, errA := strconv.Atoi(aStr)
			b, errB := strconv.Atoi(bStr)
			if errA != nil || errB != nil {
				return scn, fmt.Errorf("bad link in %q", part)
			}
			scn.Injects = append(scn.Injects, explore.Inject{
				Switch: topo.SwitchID(a),
				Event: core.LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{
					A: topo.SwitchID(a), B: topo.SwitchID(b), Down: verb == "fail",
				}},
			})
		default:
			return scn, fmt.Errorf("unknown verb %q in %q", verb, part)
		}
	}
	if len(scn.Injects) == 0 && len(scn.Faults) == 0 {
		return scn, errors.New("empty scenario")
	}
	_ = g // validated again by explore.NewWorld
	return scn, nil
}

// parseFaultOp recognizes the fault-lane verbs of the scenario DSL. The
// boolean reports whether part was a fault verb at all; lane-level
// consistency (alternating split/heal, live crash targets, a whole network
// at the end) is validated by explore.NewWorld.
func parseFaultOp(part string) (explore.FaultOp, bool, error) {
	if part == "heal" {
		return explore.FaultOp{Kind: explore.FaultHeal}, true, nil
	}
	verb, arg, ok := strings.Cut(part, "@")
	if !ok {
		return explore.FaultOp{}, false, nil
	}
	switch verb {
	case "split":
		var groups [][]topo.SwitchID
		for _, gs := range strings.Split(arg, "|") {
			var grp []topo.SwitchID
			for _, field := range strings.Split(gs, ".") {
				sw, err := strconv.Atoi(field)
				if err != nil {
					return explore.FaultOp{}, true, fmt.Errorf("bad switch %q in %q", field, part)
				}
				grp = append(grp, topo.SwitchID(sw))
			}
			groups = append(groups, grp)
		}
		return explore.FaultOp{Kind: explore.FaultSplit, Groups: groups}, true, nil
	case "crash", "restart", "compact":
		sw, err := strconv.Atoi(arg)
		if err != nil {
			return explore.FaultOp{}, true, fmt.Errorf("bad switch in %q", part)
		}
		kind := map[string]explore.FaultKind{
			"crash": explore.FaultCrash, "restart": explore.FaultRestart, "compact": explore.FaultCompact,
		}[verb]
		return explore.FaultOp{Kind: kind, Switch: topo.SwitchID(sw)}, true, nil
	default:
		return explore.FaultOp{}, false, nil
	}
}

package explore

import (
	"fmt"
	"math/rand"
)

// autoCompleteCap bounds the deterministic run-to-quiescence tail appended
// to every explicit schedule. Exceeding it means the system fails to
// quiesce (e.g. a livelock), which is reported as an error distinct from
// an invariant violation.
const autoCompleteCap = 100000

// Options bounds a search.
type Options struct {
	// MaxDepth caps schedule length in exhaustive mode (0 = unbounded:
	// rely on quiescence and MaxStates).
	MaxDepth int
	// MaxStates caps distinct states visited in exhaustive mode
	// (default 2,000,000).
	MaxStates int
	// Walks is the number of random schedules in walk mode (default 256).
	Walks int
	// Seed seeds walk mode. Equal seeds reproduce the same walks.
	Seed int64
}

func (o *Options) fill() {
	if o.MaxStates <= 0 {
		o.MaxStates = 2000000
	}
	if o.Walks <= 0 {
		o.Walks = 256
	}
}

// Stats summarizes a search.
type Stats struct {
	// States is the number of distinct world states visited (exhaustive)
	// or walks that ran to a clean quiescent state (walk).
	States int
	// Transitions is the number of state transitions applied.
	Transitions int
	// Quiescent is the number of quiescent states checked.
	Quiescent int
	// MaxDepthSeen is the longest schedule prefix explored.
	MaxDepthSeen int
	// Truncated reports that a bound (MaxDepth or MaxStates) cut an
	// exhaustive search short, so absence of violations is not a proof.
	Truncated bool
}

// Result is the outcome of a search.
type Result struct {
	Stats Stats
	// Violation is nil when every explored schedule satisfied the
	// invariants.
	Violation *Violation
}

type bfsNode struct {
	w     *World
	sched []int
}

// Exhaustive explores every reachable interleaving of (cfg, scn) by
// breadth-first search over world states, deduplicating by canonical state
// hash. BFS order means the first violation found has a minimal-length
// schedule. The search is deterministic: equal inputs explore identical
// state sequences and return identical results.
func Exhaustive(cfg Config, scn Scenario, opt Options) (*Result, error) {
	opt.fill()
	root, err := NewWorld(cfg, scn)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	visited := map[[32]byte]bool{root.hash(): true}
	queue := []bfsNode{{w: root, sched: nil}}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if len(node.sched) > res.Stats.MaxDepthSeen {
			res.Stats.MaxDepthSeen = len(node.sched)
		}
		acts := node.w.enabled()
		if len(acts) == 0 {
			res.Stats.Quiescent++
			if err := node.w.checkQuiescent(); err != nil {
				res.Violation = buildViolation(cfg, scn, node.sched, err, true)
				return res, nil
			}
			continue
		}
		if opt.MaxDepth > 0 && len(node.sched) >= opt.MaxDepth {
			res.Stats.Truncated = true
			continue
		}
		for i := range acts {
			child := node.w.clone()
			child.apply(acts[i])
			res.Stats.Transitions++
			sched := append(append([]int(nil), node.sched...), i)
			if err := child.checkStep(); err != nil {
				res.Violation = buildViolation(cfg, scn, sched, err, false)
				return res, nil
			}
			h := child.hash()
			if visited[h] {
				continue
			}
			if len(visited) >= opt.MaxStates {
				res.Stats.Truncated = true
				continue
			}
			visited[h] = true
			queue = append(queue, bfsNode{w: child, sched: sched})
		}
		res.Stats.States = len(visited)
	}
	res.Stats.States = len(visited)
	return res, nil
}

// RandomWalk samples opt.Walks random schedules, each run to quiescence,
// checking invariants along the way. Violating schedules are shrunk to a
// minimal counterexample before being reported. Deterministic in
// (cfg, scn, opt.Seed, opt.Walks).
func RandomWalk(cfg Config, scn Scenario, opt Options) (*Result, error) {
	opt.fill()
	if _, err := NewWorld(cfg, scn); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{}
	for walk := 0; walk < opt.Walks; walk++ {
		// Draw the whole schedule up front: applyIndex clamps, so a
		// generous prefix of random ints is a valid schedule and the walk
		// needs no feedback from the world to stay in range.
		sched := make([]int, 0, 64)
		w, err := NewWorld(cfg, scn)
		if err != nil {
			return nil, err
		}
		for steps := 0; ; steps++ {
			if steps > autoCompleteCap {
				return nil, fmt.Errorf("explore: walk %d exceeded %d steps without quiescing", walk, autoCompleteCap)
			}
			n := len(w.enabled())
			if n == 0 {
				break
			}
			choice := rng.Intn(n)
			sched = append(sched, choice)
			w.applyIndex(choice)
			res.Stats.Transitions++
			if err := w.checkStep(); err != nil {
				shrunk := Shrink(cfg, scn, sched)
				res.Violation = buildViolation(cfg, scn, shrunk, err, false)
				return res, nil
			}
		}
		if len(sched) > res.Stats.MaxDepthSeen {
			res.Stats.MaxDepthSeen = len(sched)
		}
		res.Stats.Quiescent++
		if err := w.checkQuiescent(); err != nil {
			shrunk := Shrink(cfg, scn, sched)
			res.Violation = buildViolation(cfg, scn, shrunk, err, true)
			return res, nil
		}
		res.Stats.States++
	}
	return res, nil
}

// runOutcome is the result of executing one explicit schedule.
type runOutcome struct {
	w *World
	// violation is the first invariant failure, or nil.
	violation error
	// quiescentViolation marks violation as a quiescent-state property.
	quiescentViolation bool
}

// runSchedule executes sched from the initial world of (cfg, scn), then
// auto-completes deterministically (always choice 0, i.e. fault-free
// first-in-canonical-order) until quiescence, checking invariants
// throughout. With trace set, the returned world carries a full
// action/protocol trace.
func runSchedule(cfg Config, scn Scenario, sched []int, trace bool) (*runOutcome, error) {
	w, err := NewWorld(cfg, scn)
	if err != nil {
		return nil, err
	}
	w.tracing = trace
	out := &runOutcome{w: w}
	for i := 0; ; i++ {
		if i > autoCompleteCap {
			return nil, fmt.Errorf("explore: schedule exceeded %d steps without quiescing", autoCompleteCap)
		}
		choice := 0
		if i < len(sched) {
			choice = sched[i]
		}
		if _, ok := w.applyIndex(choice); !ok {
			break
		}
		if out.violation = w.checkStep(); out.violation != nil {
			break
		}
	}
	if out.violation == nil && w.Quiescent() {
		if err := w.checkQuiescent(); err != nil {
			out.violation = err
			out.quiescentViolation = true
		}
	}
	return out, nil
}

// Replay executes an explicit schedule with tracing and returns the final
// world and the violation it reproduces (nil if the schedule is clean).
func Replay(cfg Config, scn Scenario, sched []int) (*World, *Violation, error) {
	out, err := runSchedule(cfg, scn, sched, true)
	if err != nil {
		return nil, nil, err
	}
	if out.violation == nil {
		return out.w, nil, nil
	}
	v := buildViolation(cfg, scn, sched, out.violation, out.quiescentViolation)
	v.Trace = out.w.Trace()
	return out.w, v, nil
}

// Shrink minimizes a violating schedule, delta-debugging style: first
// remove chunks of decreasing size, then lower each surviving choice to 0.
// Clamped indices plus deterministic auto-completion keep every candidate
// schedule executable, so shrinking never has to repair a broken prefix.
// The result still violates an invariant (not necessarily the same one).
func Shrink(cfg Config, scn Scenario, sched []int) []int {
	keep := func(s []int) bool {
		out, err := runSchedule(cfg, scn, s, false)
		return err == nil && out.violation != nil
	}
	if !keep(sched) {
		return sched
	}
	cur := append([]int(nil), sched...)
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]int(nil), cur[:start]...), cur[start+chunk:]...)
			if keep(cand) {
				cur = cand
				removed = true
			} else {
				start += chunk
			}
		}
		if chunk == 1 && !removed {
			break
		}
		if chunk > 1 {
			chunk /= 2
		} else if !removed {
			break
		}
	}
	for i := range cur {
		if cur[i] == 0 {
			continue
		}
		cand := append([]int(nil), cur...)
		cand[i] = 0
		if keep(cand) {
			cur = cand
		}
	}
	return cur
}

// buildViolation assembles a Violation for sched: replays it with tracing
// for the human-readable trace and encodes the replay token.
func buildViolation(cfg Config, scn Scenario, sched []int, err error, quiescent bool) *Violation {
	v := &Violation{
		Err:       err,
		Schedule:  append([]int(nil), sched...),
		Quiescent: quiescent,
	}
	if tok, tokErr := EncodeToken(cfg, scn, sched); tokErr == nil {
		v.Token = tok
	} else {
		v.Token = fmt.Sprintf("<token error: %v>", tokErr)
	}
	if out, runErr := runSchedule(cfg, scn, sched, true); runErr == nil {
		v.Trace = out.w.Trace()
		if out.violation != nil {
			// The shrunk schedule's own failure is authoritative: ddmin
			// only preserves "some violation", so the minimized schedule
			// may fail differently than the state the search first hit,
			// and Err must be exactly what Token replays to.
			v.Err = out.violation
			v.Quiescent = out.quiescentViolation
		}
	}
	return v
}

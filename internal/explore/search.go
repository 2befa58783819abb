package explore

import (
	"fmt"
	"math/rand"
	"slices"
)

// autoCompleteCap bounds the deterministic run-to-quiescence tail appended
// to every explicit schedule. Exceeding it means the system fails to
// quiesce (e.g. a livelock), which is reported as an error distinct from
// an invariant violation.
const autoCompleteCap = 100000

// Options bounds a search.
type Options struct {
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
	// MaxStack is how many steps from the initial world the search got:
	// the depth-first stack's high-water mark (exhaustive) or the longest
	// walk (walk). The stack stops at states already visited, so it bounds
	// the schedules this search order took, not the depth of the state
	// space.
	MaxStack int
	// Truncated reports that MaxStates cut an exhaustive search short, so
	// absence of violations is not a proof.
	Truncated bool
}

// Result is the outcome of a search.
type Result struct {
	Stats Stats
	// Violation is nil when every explored schedule satisfied the
	// invariants.
	Violation *Violation
}

// frame is one world on the depth-first stack: its enabled actions and the
// index of the next one to branch on.
type frame struct {
	w    *World
	acts []action
	next int
}

// Exhaustive explores every reachable interleaving of (cfg, scn) by
// depth-first search over world states, deduplicating by canonical state
// hash. The stack holds one world per schedule step, so memory grows with
// the depth of the schedules, not the breadth of the state space. The
// first violation found is shrunk (see Shrink) before it is reported. The
// search is deterministic: equal inputs explore identical state sequences
// and return identical results.
func Exhaustive(cfg Config, scn Scenario, opt Options) (*Result, error) {
	opt.fill()
	root, err := NewWorld(cfg, scn)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: Stats{States: 1}}
	var hs hasher
	visited := map[[32]byte]bool{hs.sum(root): true}
	var stack []frame
	// sched[i] is the index of the action stack[i] branched on last, so
	// sched is the schedule that reaches the world most recently entered.
	var sched []int
	enter := func(w *World) error {
		res.Stats.MaxStack = max(res.Stats.MaxStack, len(sched))
		if acts := w.enabled(); len(acts) > 0 {
			stack = append(stack, frame{w: w, acts: acts})
			return nil
		}
		res.Stats.Quiescent++
		return w.checkQuiescent()
	}
	if err := enter(root); err != nil {
		res.Violation = shrunkViolation(cfg, scn, sched, err, true)
		return res, nil
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.acts) {
			*top = frame{}
			stack = stack[:len(stack)-1]
			continue
		}
		i := top.next
		top.next++
		// The last branch takes the frame's own world, which nothing reads
		// again: one clone fewer per expanded state.
		child := top.w
		if top.next < len(top.acts) {
			child = child.clone()
		}
		child.apply(top.acts[i])
		res.Stats.Transitions++
		sched = append(sched[:len(stack)-1], i)
		if err := child.checkStep(); err != nil {
			res.Violation = shrunkViolation(cfg, scn, sched, err, false)
			return res, nil
		}
		h := hs.sum(child)
		if visited[h] {
			continue
		}
		if len(visited) >= opt.MaxStates {
			res.Stats.Truncated = true
			continue
		}
		visited[h] = true
		res.Stats.States++
		if err := enter(child); err != nil {
			res.Violation = shrunkViolation(cfg, scn, sched, err, true)
			return res, nil
		}
	}
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
				res.Violation = shrunkViolation(cfg, scn, sched, err, false)
				return res, nil
			}
		}
		res.Stats.MaxStack = max(res.Stats.MaxStack, len(sched))
		res.Stats.Quiescent++
		if err := w.checkQuiescent(); err != nil {
			res.Violation = shrunkViolation(cfg, scn, sched, err, true)
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
	return out.w, buildViolation(cfg, scn, sched, out), nil
}

// Shrink minimizes a violating schedule, delta-debugging style: first
// remove chunks of decreasing size, then lower each surviving choice to 0,
// then shrink the result again until a round changes nothing (a lowered
// choice can make a step removable). Clamped indices plus deterministic
// auto-completion keep every candidate schedule executable, so shrinking
// never has to repair a broken prefix. The result still violates an
// invariant (not necessarily the same one).
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
	if !slices.Equal(cur, sched) {
		return Shrink(cfg, scn, cur)
	}
	return cur
}

// shrunkViolation shrinks a violating schedule a search found (err is the
// violation it hit, quiescent its kind) and reports the result from one
// traced run of it. err stands in if that run fails or shows none.
func shrunkViolation(cfg Config, scn Scenario, sched []int, err error, quiescent bool) *Violation {
	sched = Shrink(cfg, scn, sched)
	out, runErr := runSchedule(cfg, scn, sched, true)
	if runErr != nil {
		out = &runOutcome{}
	}
	if out.violation == nil {
		out.violation, out.quiescentViolation = err, quiescent
	}
	return buildViolation(cfg, scn, sched, out)
}

// buildViolation assembles a Violation for sched from out, the outcome of
// one traced run of it (out.w nil when the run did not finish): its
// failure, its trace and the replay token. The shrunk schedule's own
// failure is authoritative: ddmin only preserves "some violation", so the
// minimized schedule may fail differently than the state the search first
// hit, and Err must be exactly what Token replays to.
func buildViolation(cfg Config, scn Scenario, sched []int, out *runOutcome) *Violation {
	v := &Violation{
		Err:       out.violation,
		Schedule:  append([]int(nil), sched...),
		Quiescent: out.quiescentViolation,
	}
	if tok, tokErr := EncodeToken(cfg, scn, sched); tokErr == nil {
		v.Token = tok
	} else {
		v.Token = fmt.Sprintf("<token error: %v>", tokErr)
	}
	if out.w != nil {
		v.Trace = out.w.Trace()
	}
	return v
}

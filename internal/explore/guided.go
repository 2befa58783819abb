package explore

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"
)

// Guided forward search and fault-oriented backward search (Helmy et al.,
// "Systematic Testing of Multicast Routing Protocols", adapted to the
// D-GMC world model).
//
// Blind BFS spends its state budget uniformly near the root: on a
// 6-switch fabric with multiple membership events every frontier level
// multiplies by the fan-out of in-flight deliveries, and quiescent states
// — where the convergence invariants live — are never reached. The two
// searches here spend the same budget non-uniformly:
//
//   - Guided (forward): best-first over world states, ranked by an
//     interestingness score — novel qualitative stamp shapes, weighted
//     suspect-state signals (suspect.go), fault-lane and inject progress,
//     and deltas of the recovery counters (reconciles, replays, resync
//     re-arms) against the parent state. Novel or suspicious states are
//     additionally *drain-probed*: a clone runs deterministically to
//     quiescence and the quiescent invariants are checked there, which
//     converts quiescent-only violations (divergent trees at settled
//     stamps) into properties detectable at any depth. Probes run two
//     deterministic completion variants — the canonical drain and a
//     pseudo-shuffled one — so a violation hiding behind one specific
//     completion order is not masked by the canonical drain repairing it.
//
//   - Backward: a two-phase fault-oriented search. Phase one runs the
//     guided sweep, harvesting the highest-scoring suspect states (one
//     per qualitative shape) and their reaching schedules. Phase two
//     ddmin-minimizes each reaching schedule against the suspect
//     signature (shrinkWith + runPrefix — the same machinery that shrinks
//     counterexamples, with "still violates" replaced by "still reaches
//     the suspect state"), then exhaustively explores the bounded
//     neighborhood around each minimized suspect, drain-probing every new
//     state. Suspects that never escalate into violations are reported as
//     minimized, token-replayable SuspectReports.
//
// Both searches are deterministic given Options.Seed: the frontier is
// ordered by (priority desc, insertion seq asc), and the seed only
// perturbs priorities through a hash-derived jitter.

// Scoring weights. Suspicion dominates (it is the violation-proximity
// signal), novelty breaks plateaus, progress pulls schedules through the
// inject/fault lanes toward quiescence, metric deltas reward transitions
// that exercise recovery machinery, and the depth penalty keeps the
// search from diving one corridor forever.
const (
	weightSuspicion = 8
	weightNovelty   = 64
	weightProgress  = 4
	weightMetric    = 2
	weightDepth     = 1

	// jitterRange scales priorities so the seed-derived jitter reorders
	// only near-equal scores.
	jitterRange = 4
)

// probeVariants are the deterministic completion policies of a drain
// probe: the canonical drain (always the first enabled action) and a
// pseudo-shuffled one (a large prime modulo the enabled count walks the
// action set in a schedule-length-dependent pattern). Both are plain
// schedule choices, so a probed violation's schedule replays and shrinks
// through the ordinary machinery.
var probeVariants = [2]int{0, 104729}

// guidedNode is one frontier state.
type guidedNode struct {
	w        *World
	sched    []int
	hash     [32]byte
	score    int
	priority int64
	seq      int
	metric   uint64
}

// frontier is a max-heap by (priority desc, seq asc).
type frontier []*guidedNode

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].priority != f[j].priority {
		return f[i].priority > f[j].priority
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(*guidedNode)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	node := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return node
}

// suspectRec is a harvested suspect state (backward search phase one).
type suspectRec struct {
	sched  []int
	counts suspectCounts
	score  int
	seq    int
	shape  string
}

type guidedSearch struct {
	cfg     Config
	scn     Scenario
	opt     Options
	res     *Result
	visited map[[32]byte]bool
	pq      frontier
	seq     int

	// harvest, when non-nil, collects the best suspect state per
	// qualitative shape (backward search phase one).
	harvest map[string]*suspectRec
}

func newGuidedSearch(cfg Config, scn Scenario, opt Options) (*guidedSearch, error) {
	opt.fill()
	if _, err := NewWorld(cfg, scn); err != nil {
		return nil, err
	}
	return &guidedSearch{
		cfg:     cfg,
		scn:     scn,
		opt:     opt,
		res:     &Result{Stats: Stats{Coverage: newCoverage()}},
		visited: make(map[[32]byte]bool),
	}, nil
}

// metricSum folds the recovery/consistency counters whose growth marks a
// transition as exercising interesting machinery.
func metricSum(w *World) uint64 {
	var total uint64
	for _, m := range w.machines {
		mt := m.Metrics()
		total += mt.Reconciles + mt.Replays + mt.ResyncRearms +
			mt.ResyncRequests + mt.OutOfOrderLSAs + mt.Withdrawn
	}
	return total
}

// progress measures how far the world has advanced through the scenario's
// inject and fault lanes.
func progress(w *World) int {
	p := 0
	for _, pos := range w.injectPos {
		p += pos
	}
	return p + 2*w.faultPos
}

// highSuspect reports whether counts include a kind weighty enough to
// deserve a drain probe on its own.
func highSuspect(sc *suspectCounts) bool {
	return sc[SuspectCommitAhead] > 0 || sc[SuspectOrphanedProposal] > 0 ||
		sc[SuspectSettledDivergence] > 0 || sc[SuspectHealResidue] > 0
}

// jitter derives a deterministic seed-dependent perturbation from a state
// hash, so different seeds explore near-equal-priority states in
// different orders without breaking determinism for a fixed seed.
func jitter(h [32]byte, seed int64) int64 {
	v := binary.LittleEndian.Uint64(h[:8]) ^ uint64(seed)*0x9e3779b97f4a7c15
	return int64(v % jitterRange)
}

// noteCoverage records a state in the coverage map and reports whether
// its qualitative shape is new.
func (g *guidedSearch) noteCoverage(w *World, sc *suspectCounts, shape string) (novel bool) {
	cov := &g.res.Stats.Coverage
	novel = cov.StampShapes[shape] == 0
	cov.StampShapes[shape]++
	for k := 0; k < int(numSuspectKinds); k++ {
		if sc[k] > 0 {
			cov.SuspectKinds[SuspectKind(k).String()]++
		}
	}
	if w.faultPos > cov.FaultDepth {
		cov.FaultDepth = w.faultPos
	}
	return novel
}

// push scores a (deduplicated, checked) state and adds it to the
// frontier, harvesting it as a suspect when backward search asks for
// that. parentMetric is the parent state's metricSum.
func (g *guidedSearch) push(w *World, sched []int, h [32]byte, parentMetric uint64) {
	sc := w.suspects()
	shape := w.stampShape()
	novel := g.noteCoverage(w, &sc, shape)
	metric := metricSum(w)
	score := weightSuspicion*sc.score() + weightProgress*progress(w) +
		weightMetric*int(metric-parentMetric) - weightDepth*len(sched)
	if novel {
		score += weightNovelty
	}
	if g.harvest != nil && sc.any(g.opt.SuspectKinds) {
		rec := g.harvest[shape]
		if rec == nil || sc.score() > rec.score {
			g.harvest[shape] = &suspectRec{
				sched:  append([]int(nil), sched...),
				counts: sc,
				score:  sc.score(),
				seq:    g.seq,
				shape:  shape,
			}
		}
	}
	if novel || highSuspect(&sc) {
		g.probe(w, sched)
	}
	if g.res.Violation != nil {
		return
	}
	node := &guidedNode{
		w:        w,
		sched:    sched,
		hash:     h,
		score:    score,
		priority: int64(score)*jitterRange + jitter(h, g.opt.Seed),
		seq:      g.seq,
		metric:   metric,
	}
	g.seq++
	heap.Push(&g.pq, node)
	if len(g.pq) > 2*g.opt.Frontier {
		g.trimFrontier()
	}
}

// trimFrontier discards the lowest-priority half of an overfull frontier
// (beam behavior): guided search trades completeness for depth, and the
// Truncated flag records the trade.
func (g *guidedSearch) trimFrontier() {
	nodes := []*guidedNode(g.pq)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].priority != nodes[j].priority {
			return nodes[i].priority > nodes[j].priority
		}
		return nodes[i].seq < nodes[j].seq
	})
	for i := g.opt.Frontier; i < len(nodes); i++ {
		nodes[i] = nil
	}
	g.pq = frontier(nodes[:g.opt.Frontier:g.opt.Frontier])
	heap.Init(&g.pq)
	g.res.Stats.Truncated = true
}

// probe clones w, drains it to quiescence under each deterministic
// completion variant, and checks the per-step and quiescent invariants
// along the way. A violation becomes the search result (with the explicit
// drain tail appended to the schedule, then shrunk), which is what makes
// quiescent-only violations detectable from any frontier depth.
func (g *guidedSearch) probe(w *World, sched []int) {
	g.res.Stats.Probes++
	for _, variant := range probeVariants {
		pw := w.clone()
		steps := 0
		var verr error
		quiescentV := false
		for {
			if g.res.Stats.spent() >= g.opt.Budget {
				g.res.Stats.Truncated = true
				return
			}
			if steps > autoCompleteCap {
				return // livelocked drain: nothing to report from a probe
			}
			if _, ok := pw.applyIndex(variant); !ok {
				break
			}
			steps++
			g.res.Stats.ProbeSteps++
			if err := pw.checkStep(); err != nil {
				verr = err
				break
			}
		}
		if verr == nil {
			g.res.Stats.Quiescent++
			if err := pw.checkQuiescent(); err != nil {
				verr = err
				quiescentV = true
			}
		}
		if verr != nil {
			full := append([]int(nil), sched...)
			for k := 0; k < steps; k++ {
				full = append(full, variant)
			}
			shrunk := Shrink(g.cfg, g.scn, full)
			g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, verr, quiescentV)
			return
		}
	}
}

// expand pops the best frontier state and branches it. It reports false
// when the search is over (frontier empty, budget gone, or violation
// found).
func (g *guidedSearch) expand() bool {
	if g.res.Violation != nil || len(g.pq) == 0 {
		return false
	}
	if g.res.Stats.spent() >= g.opt.Budget {
		g.res.Stats.Truncated = true
		return false
	}
	node := heap.Pop(&g.pq).(*guidedNode)
	if g.opt.expandHook != nil {
		g.opt.expandHook(len(node.sched), node.score, node.hash)
	}
	if len(node.sched) > g.res.Stats.MaxDepthSeen {
		g.res.Stats.MaxDepthSeen = len(node.sched)
	}
	acts := node.w.enabled()
	if len(acts) == 0 {
		g.res.Stats.Quiescent++
		if err := node.w.checkQuiescent(); err != nil {
			shrunk := Shrink(g.cfg, g.scn, node.sched)
			g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, err, true)
			return false
		}
		return true
	}
	for i := range acts {
		if g.res.Stats.spent() >= g.opt.Budget {
			g.res.Stats.Truncated = true
			return false
		}
		child := node.w.clone()
		child.apply(acts[i])
		g.res.Stats.Transitions++
		sched := append(append([]int(nil), node.sched...), i)
		if err := child.checkStep(); err != nil {
			shrunk := Shrink(g.cfg, g.scn, sched)
			g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, err, false)
			return false
		}
		h := child.hash()
		if g.visited[h] {
			continue
		}
		g.visited[h] = true
		g.push(child, sched, h, node.metric)
		if g.res.Violation != nil {
			return false
		}
	}
	g.res.Stats.States = len(g.visited)
	return true
}

// run seeds the frontier with the initial world and expands until the
// frontier empties, the budget runs out, or a violation is found.
func (g *guidedSearch) run() error {
	root, err := NewWorld(g.cfg, g.scn)
	if err != nil {
		return err
	}
	h := root.hash()
	g.visited[h] = true
	g.push(root, nil, h, metricSum(root))
	for g.expand() {
	}
	g.res.Stats.States = len(g.visited)
	return nil
}

// Guided is the guided forward search: best-first exploration of the
// (cfg, scn) state space under a transition budget, with drain probes
// checking quiescent invariants from every novel or suspicious state.
// Deterministic given opt.Seed.
func Guided(cfg Config, scn Scenario, opt Options) (*Result, error) {
	g, err := newGuidedSearch(cfg, scn, opt)
	if err != nil {
		return nil, err
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	return g.res, nil
}

// Backward is the fault-oriented backward search: harvest suspect states
// with a guided forward sweep, minimize the schedules that reach them,
// then exhaustively explore each minimized suspect's neighborhood for
// real violations. Suspects that do not escalate are reported (minimized
// and token-replayable) in Result.Suspects. Deterministic given opt.Seed.
func Backward(cfg Config, scn Scenario, opt Options) (*Result, error) {
	g, err := newGuidedSearch(cfg, scn, opt)
	if err != nil {
		return nil, err
	}
	// Phase one gets half the budget; the harvest keeps the best suspect
	// per qualitative shape so near-duplicates along one corridor do not
	// crowd out distinct situations.
	fullBudget := g.opt.Budget
	g.opt.Budget = fullBudget / 2
	g.harvest = make(map[string]*suspectRec)
	if err := g.run(); err != nil {
		return nil, err
	}
	g.res.Stats.SuspectsFound = len(g.harvest)
	g.opt.Budget = fullBudget
	if g.res.Violation != nil {
		return g.res, nil
	}

	recs := make([]*suspectRec, 0, len(g.harvest))
	for _, rec := range g.harvest {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].score != recs[j].score {
			return recs[i].score > recs[j].score
		}
		return recs[i].seq < recs[j].seq
	})
	if len(recs) > g.opt.TopSuspects {
		recs = recs[:g.opt.TopSuspects]
	}

	reported := make(map[string]bool)
	for i, rec := range recs {
		if g.res.Stats.spent() >= fullBudget {
			g.res.Stats.Truncated = true
			break
		}
		// Slice the remaining budget evenly across the suspects still to
		// be explored, so one dense neighborhood cannot starve the rest of
		// the report.
		g.opt.Budget = g.res.Stats.spent() + (fullBudget-g.res.Stats.spent())/(len(recs)-i)
		minSched := g.minimizeSuspect(rec)
		// Distinct harvested shapes often minimize to the same canonical
		// prefix; one report (and one neighborhood sweep) per prefix.
		key := fmt.Sprint(minSched)
		if reported[key] {
			continue
		}
		reported[key] = true
		report := SuspectReport{
			Score:    rec.score,
			Schedule: minSched,
		}
		for k := 0; k < int(numSuspectKinds); k++ {
			if rec.counts[k] > 0 {
				report.Kinds = append(report.Kinds, SuspectKind(k).String())
			}
		}
		if tok, err := EncodeToken(g.cfg, g.scn, minSched); err == nil {
			report.Token = tok
		}
		g.res.Suspects = append(g.res.Suspects, report)
		if err := g.neighborhood(minSched); err != nil {
			return nil, err
		}
		if g.res.Violation != nil {
			g.res.Suspects = nil
			return g.res, nil
		}
	}
	return g.res, nil
}

// minimizeSuspect ddmin-minimizes the schedule reaching a suspect state:
// the kept predicate is "the prefix still reaches a state covering the
// suspect signature" instead of "the run still violates".
func (g *guidedSearch) minimizeSuspect(rec *suspectRec) []int {
	return shrinkWith(rec.sched, func(s []int) bool {
		w, err := runPrefix(g.cfg, g.scn, s)
		if err != nil {
			return false
		}
		sc := w.suspects()
		return sc.covers(&rec.counts)
	})
}

// neighborhood exhaustively explores the bounded region around a
// minimized suspect prefix, drain-probing every new state — the
// "backward" half of fault-oriented search: having derived how to reach
// the suspect cheaply, look for the orderings near it that turn a
// near-violation into a real one.
func (g *guidedSearch) neighborhood(prefix []int) error {
	w0, err := runPrefix(g.cfg, g.scn, prefix)
	if err != nil {
		return err
	}
	type nbNode struct {
		w     *World
		delta []int
	}
	queue := []nbNode{{w: w0}}
	h0 := w0.hash()
	if !g.visited[h0] {
		g.visited[h0] = true
	}
	for len(queue) > 0 && g.res.Violation == nil {
		node := queue[0]
		queue = queue[1:]
		sched := append(append([]int(nil), prefix...), node.delta...)
		if g.opt.expandHook != nil {
			g.opt.expandHook(len(sched), -1, node.w.hash())
		}
		acts := node.w.enabled()
		if len(acts) == 0 {
			g.res.Stats.Quiescent++
			if err := node.w.checkQuiescent(); err != nil {
				shrunk := Shrink(g.cfg, g.scn, sched)
				g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, err, true)
				return nil
			}
			continue
		}
		if len(node.delta) >= g.opt.BackDepth {
			continue
		}
		for i := range acts {
			if g.res.Stats.spent() >= g.opt.Budget {
				g.res.Stats.Truncated = true
				return nil
			}
			child := node.w.clone()
			child.apply(acts[i])
			g.res.Stats.Transitions++
			delta := append(append([]int(nil), node.delta...), i)
			csched := append(append([]int(nil), prefix...), delta...)
			if err := child.checkStep(); err != nil {
				shrunk := Shrink(g.cfg, g.scn, csched)
				g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, err, false)
				return nil
			}
			h := child.hash()
			if g.visited[h] {
				continue
			}
			g.visited[h] = true
			sc := child.suspects()
			shape := child.stampShape()
			g.noteCoverage(child, &sc, shape)
			g.probe(child, csched)
			if g.res.Violation != nil {
				return nil
			}
			queue = append(queue, nbNode{w: child, delta: delta})
		}
		g.res.Stats.States = len(g.visited)
	}
	return nil
}

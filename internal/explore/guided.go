package explore

import (
	"container/heap"
	"encoding/binary"
	"sort"
)

// Guided forward search (the forward half of Helmy et al., "Systematic
// Testing of Multicast Routing Protocols", adapted to the D-GMC world
// model).
//
// Blind BFS spends its state budget uniformly near the root: on a
// 6-switch fabric with multiple membership events every frontier level
// multiplies by the fan-out of in-flight deliveries, and quiescent states
// — where the convergence invariants live — are never reached. Guided
// search spends the same budget non-uniformly: best-first over world
// states, ranked by an interestingness score — novel qualitative stamp
// shapes, weighted suspect-state signals (suspect.go), fault-lane and
// inject progress, and deltas of the recovery counters (reconciles,
// replays, resync re-arms) against the parent state. Novel or suspicious
// states are additionally *drain-probed*: a clone runs deterministically
// to quiescence and the quiescent invariants are checked there, which
// converts quiescent-only violations (divergent trees at settled stamps)
// into properties detectable at any depth. Probes run two deterministic
// completion variants — the canonical drain and a pseudo-shuffled one —
// so a violation hiding behind one specific completion order is not
// masked by the canonical drain repairing it.
//
// The search is deterministic given Options.Seed: the frontier is ordered
// by (priority desc, insertion seq asc), and the seed only perturbs
// priorities through a hash-derived jitter.

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

type guidedSearch struct {
	cfg     Config
	scn     Scenario
	opt     Options
	res     *Result
	visited map[[32]byte]bool
	pq      frontier
	seq     int
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
func (g *guidedSearch) noteCoverage(w *World) (novel bool) {
	cov := &g.res.Stats.Coverage
	shape := w.stampShape()
	novel = cov.StampShapes[shape] == 0
	cov.StampShapes[shape]++
	if w.faultPos > cov.FaultDepth {
		cov.FaultDepth = w.faultPos
	}
	return novel
}

// push scores a (deduplicated, checked) state and adds it to the
// frontier. parentMetric is the parent state's metricSum.
func (g *guidedSearch) push(w *World, sched []int, h [32]byte, parentMetric uint64) error {
	sc := w.suspects()
	novel := g.noteCoverage(w)
	metric := metricSum(w)
	score := weightSuspicion*sc.score() + weightProgress*progress(w) +
		weightMetric*int(metric-parentMetric) - weightDepth*len(sched)
	if novel {
		score += weightNovelty
	}
	if novel || highSuspect(&sc) {
		if err := g.probe(w, sched); err != nil {
			return err
		}
	}
	if g.res.Violation != nil {
		return nil
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
	return nil
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
// quiescent-only violations detectable from any frontier depth. A drain
// that never quiesces is an error, as it is for any other schedule.
func (g *guidedSearch) probe(w *World, sched []int) error {
	g.res.Stats.Probes++
	for _, variant := range probeVariants {
		pw := w.clone()
		steps := 0
		verr, cut, err := drain(pw, variant, &steps, g.opt.Budget-g.res.Stats.spent(), "drain probe")
		g.res.Stats.ProbeSteps += steps
		if err != nil {
			return err
		}
		if cut {
			g.res.Stats.Truncated = true
			return nil
		}
		quiescentV := false
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
			return nil
		}
	}
	return nil
}

// expand pops the best frontier state and branches it. It reports false
// when the search is over (frontier empty, budget gone, or violation
// found).
func (g *guidedSearch) expand() (bool, error) {
	if g.res.Violation != nil || len(g.pq) == 0 {
		return false, nil
	}
	if g.res.Stats.spent() >= g.opt.Budget {
		g.res.Stats.Truncated = true
		return false, nil
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
			return false, nil
		}
		return true, nil
	}
	for i := range acts {
		if g.res.Stats.spent() >= g.opt.Budget {
			g.res.Stats.Truncated = true
			return false, nil
		}
		child := node.w.clone()
		child.apply(acts[i])
		g.res.Stats.Transitions++
		sched := append(append([]int(nil), node.sched...), i)
		if err := child.checkStep(); err != nil {
			shrunk := Shrink(g.cfg, g.scn, sched)
			g.res.Violation = buildViolation(g.cfg, g.scn, shrunk, err, false)
			return false, nil
		}
		h := child.hash()
		if g.visited[h] {
			continue
		}
		g.visited[h] = true
		if err := g.push(child, sched, h, node.metric); err != nil {
			return false, err
		}
		if g.res.Violation != nil {
			return false, nil
		}
	}
	g.res.Stats.States = len(g.visited)
	return true, nil
}

// Guided is the guided forward search: best-first exploration of the
// (cfg, scn) state space under a transition budget, with drain probes
// checking quiescent invariants from every novel or suspicious state.
// Deterministic given opt.Seed.
func Guided(cfg Config, scn Scenario, opt Options) (*Result, error) {
	opt.fill()
	root, err := NewWorld(cfg, scn)
	if err != nil {
		return nil, err
	}
	g := &guidedSearch{
		cfg:     cfg,
		scn:     scn,
		opt:     opt,
		res:     &Result{Stats: Stats{Coverage: Coverage{StampShapes: make(map[string]int)}}},
		visited: make(map[[32]byte]bool),
	}
	h := root.hash()
	g.visited[h] = true
	if err := g.push(root, nil, h, metricSum(root)); err != nil {
		return nil, err
	}
	for {
		more, err := g.expand()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	g.res.Stats.States = len(g.visited)
	return g.res, nil
}

package topo

import (
	"math"
	"sync"
	"time"
)

// This file is the shared single-source shortest-path kernel behind every
// Dijkstra-shaped computation in the repository: unicast route tables
// (Graph.ShortestPaths / internal/lsr), the MC topology heuristics
// (internal/route's SPH and nearestToTree), and flooding arrival analysis
// (internal/flood's arrivalDelays). It replaces the O(n²) linear-min scans
// those call sites used to carry individually with one O((n+m)·log n)
// binary-heap implementation that runs on caller-provided scratch, so
// repeated computations on one machine allocate nothing.
//
// Determinism contract: the kernel produces bit-identical distance and
// predecessor arrays to the historical linear-scan implementations. Nodes
// are settled in increasing (distance, switch ID) order — exactly the order
// a linear scan with a strict `<` picks — and the equal-cost predecessor
// rule is unchanged: on a tie, an unsettled node's predecessor is lowered
// to the smaller relaxing switch. The D-GMC consensus relies on identical
// trees from identical inputs, so internal/route's determinism test pins
// this kernel against a reference linear-scan copy.

// Unreachable is the kernel's "infinite" distance: SSSPScratch.Dist holds
// it for every switch the source set cannot reach over up links.
const Unreachable = time.Duration(math.MaxInt64)

// ssspEntry is one binary-heap element, ordered by (d, s).
type ssspEntry struct {
	d time.Duration
	s SwitchID
}

// SSSPScratch is the reusable working state of the kernel. After RunSSSP,
// Dist and Pred hold the result for switches 0..n-1 and stay valid until
// the next Reset. The zero value is ready to use; Reset grows the buffers
// to the network size while keeping their capacity across runs.
type SSSPScratch struct {
	// Dist is the shortest distance from the seeded source set, or
	// Unreachable.
	Dist []time.Duration
	// Pred is the predecessor toward the source set (NoSwitch for sources
	// and unreachable switches).
	Pred []SwitchID

	// IDs and the slice Marks returns are workspace for the kernel's
	// callers, which rent the scratch anyway and want the same two things
	// beside it — a list of switches and a set of them by ID — without
	// allocating either per computation. The kernel touches neither.
	IDs  []SwitchID
	mark []bool

	done []bool
	heap []ssspEntry
}

// Marks returns the scratch's switch set sized for an n-switch graph, all
// false. The slice stays the caller's until the next Marks call; Reset and
// RunSSSP leave it alone.
func (sc *SSSPScratch) Marks(n int) []bool {
	if cap(sc.mark) < n {
		sc.mark = make([]bool, n)
	}
	sc.mark = sc.mark[:n]
	clear(sc.mark)
	return sc.mark
}

// Reset prepares the scratch for a run over an n-switch graph, clearing any
// previous result while reusing the underlying arrays.
func (sc *SSSPScratch) Reset(n int) {
	if cap(sc.Dist) < n {
		sc.Dist = make([]time.Duration, n)
		sc.Pred = make([]SwitchID, n)
		sc.done = make([]bool, n)
	}
	sc.Dist = sc.Dist[:n]
	sc.Pred = sc.Pred[:n]
	sc.done = sc.done[:n]
	for i := 0; i < n; i++ {
		sc.Dist[i] = Unreachable
		sc.Pred[i] = NoSwitch
		sc.done[i] = false
	}
	sc.heap = sc.heap[:0]
}

// Seed marks s as a source (distance zero, no predecessor). Call between
// Reset and RunSSSP, or between a finished run and RelaxSSSP; seeding order
// does not affect the result (the heap settles equal-distance nodes
// lowest-ID first).
func (sc *SSSPScratch) Seed(s SwitchID) {
	if int(s) < 0 || int(s) >= len(sc.Dist) {
		return
	}
	sc.Dist[s] = 0
	sc.Pred[s] = NoSwitch
	sc.push(ssspEntry{0, s})
}

func (sc *SSSPScratch) push(e ssspEntry) {
	sc.heap = append(sc.heap, e)
	i := len(sc.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(sc.heap[i], sc.heap[p]) {
			break
		}
		sc.heap[i], sc.heap[p] = sc.heap[p], sc.heap[i]
		i = p
	}
}

func (sc *SSSPScratch) pop() ssspEntry {
	h := sc.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && less(h[r], h[l]) {
			c = r
		}
		if !less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

func less(a, b ssspEntry) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.s < b.s
}

// RunSSSP runs the kernel from the seeded source set over up links, each
// hop weighted by the link delay plus perHop (zero for pure delay-weighted
// paths; internal/flood passes its per-hop forwarding cost). Results land
// in sc.Dist and sc.Pred.
func (g *Graph) RunSSSP(sc *SSSPScratch, perHop time.Duration) {
	for len(sc.heap) > 0 {
		e := sc.pop()
		u := e.s
		if sc.done[u] || e.d != sc.Dist[u] {
			continue // stale entry superseded by a shorter path
		}
		sc.done[u] = true
		du := sc.Dist[u]
		for _, li := range g.adj[u] {
			l := &g.links[li]
			if l.Down {
				continue
			}
			v := l.Other(u)
			if nd := du + l.Delay + perHop; nd < sc.Dist[v] {
				sc.Dist[v] = nd
				sc.Pred[v] = u
				sc.push(ssspEntry{nd, v})
			} else if nd == sc.Dist[v] && !sc.done[v] && sc.Pred[v] > u {
				// Equal-cost tie: keep the lowest-ID predecessor, exactly as
				// the historical linear-scan kernels did.
				sc.Pred[v] = u
			}
		}
	}
}

// RelaxSSSP adds the sources seeded since a finished run to it: it relaxes
// only from switches that got closer, so it costs the region the new
// sources brought closer rather than the graph, and leaves Dist and Pred
// exactly as Reset, seeding the old and the new sources together and
// RunSSSP would. Every switch that gets closer lies on a path whose
// switches all got closer (one that did not bounds its successors' old
// distances), so nothing is missed. Every lowest-cost predecessor of a
// switch that got closer got closer itself and settles before it, and a
// switch whose distance stands gains tie predecessors only from
// neighbours that got closer, each of which relaxes it: so the equal-cost
// rule picks as a rerun would. Both rest on hop weights being positive
// (AddLink refuses a delay <= 0, and perHop is never negative), which is
// also why this loop needs no settled marks: RunSSSP's are all set by
// then, and nothing relaxed after a switch settles can reach its distance.
func (g *Graph) RelaxSSSP(sc *SSSPScratch, perHop time.Duration) {
	for len(sc.heap) > 0 {
		e := sc.pop()
		u := e.s
		if e.d != sc.Dist[u] {
			continue // stale entry superseded by a shorter path
		}
		du := sc.Dist[u]
		for _, li := range g.adj[u] {
			l := &g.links[li]
			if l.Down {
				continue
			}
			v := l.Other(u)
			if nd := du + l.Delay + perHop; nd < sc.Dist[v] {
				sc.Dist[v] = nd
				sc.Pred[v] = u
				sc.push(ssspEntry{nd, v})
			} else if nd == sc.Dist[v] && sc.Pred[v] > u {
				sc.Pred[v] = u // RunSSSP's equal-cost rule
			}
		}
	}
}

// ssspPool recycles scratch across computations that have no natural place
// to keep one (e.g. one-shot ShortestPaths calls); long-lived owners such
// as flood.Network hold their own.
var ssspPool = sync.Pool{New: func() any { return new(SSSPScratch) }}

// AcquireSSSP returns a scratch from the shared pool. Release it with
// ReleaseSSSP when the Dist/Pred results are no longer needed.
func AcquireSSSP() *SSSPScratch { return ssspPool.Get().(*SSSPScratch) }

// ReleaseSSSP returns a scratch to the shared pool.
func ReleaseSSSP(sc *SSSPScratch) { ssspPool.Put(sc) }

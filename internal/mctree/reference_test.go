package mctree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dgmc/internal/topo"
)

// refValidate is Validate as it stood before it moved onto flat scratch,
// verbatim: a Nodes() set, an adjacency map, a seen map.
func refValidate(t *Tree, g *topo.Graph, members Members) error {
	if !t.Kind.Valid() {
		return fmt.Errorf("mctree: invalid kind %d", t.Kind)
	}
	if len(t.edges) == 0 {
		if len(members) > 1 {
			return fmt.Errorf("mctree: %d members but empty tree", len(members))
		}
		return nil
	}
	for _, e := range t.edges {
		l, ok := g.Link(e.A, e.B)
		if !ok {
			return fmt.Errorf("mctree: edge (%d,%d) not in network", e.A, e.B)
		}
		if l.Down {
			return fmt.Errorf("mctree: edge (%d,%d) uses a failed link", e.A, e.B)
		}
	}
	nodes := t.Nodes()
	if len(t.edges) != len(nodes)-1 {
		return fmt.Errorf("mctree: %d edges over %d nodes (cycle or forest)", len(t.edges), len(nodes))
	}
	// Connectivity over tree edges.
	adj := make(map[topo.SwitchID][]topo.SwitchID, len(nodes))
	for _, e := range t.edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	seen := map[topo.SwitchID]bool{nodes[0]: true}
	queue := []topo.SwitchID{nodes[0]}
	for qi := 0; qi < len(queue); qi++ {
		for _, nb := range adj[queue[qi]] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != len(nodes) {
		return fmt.Errorf("mctree: tree is disconnected (%d of %d nodes reachable)", len(seen), len(nodes))
	}
	for s := range members {
		if !seen[s] {
			return fmt.Errorf("mctree: member %d not on tree", s)
		}
	}
	if t.Kind == Asymmetric && t.Root != topo.NoSwitch && !seen[t.Root] {
		return fmt.Errorf("mctree: root %d not on tree", t.Root)
	}
	return nil
}

// sameVerdict compares two Validate results as strings, except that "member
// N not on tree" names whichever missing member a map range met first: there
// the two must only agree that one is missing.
func sameVerdict(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	const missing = "mctree: member "
	if strings.HasPrefix(want.Error(), missing) {
		return strings.HasPrefix(got.Error(), missing)
	}
	return got.Error() == want.Error()
}

// randomTree grows a tree over up links of g from a random switch: always a
// valid topology, of up to size nodes.
func randomTree(rng *rand.Rand, g *topo.Graph, kind Kind, size int) *Tree {
	start := topo.SwitchID(rng.Intn(g.NumSwitches()))
	t := NewWithRoot(kind, topo.NoSwitch)
	on := map[topo.SwitchID]bool{start: true}
	nodes := []topo.SwitchID{start}
	for tries := 0; len(nodes) < size && tries < 8*size; tries++ {
		from := nodes[rng.Intn(len(nodes))]
		nbs := g.Neighbors(from)
		if len(nbs) == 0 {
			continue
		}
		if to := nbs[rng.Intn(len(nbs))]; !on[to] {
			t.AddEdge(from, to)
			on[to] = true
			nodes = append(nodes, to)
		}
	}
	if kind == Asymmetric && rng.Intn(4) > 0 {
		t.Root = nodes[rng.Intn(len(nodes))]
	}
	return t
}

// TestValidateMatchesMapReference holds the flat Validate to the map-based
// one it replaced on random valid trees and on every way of breaking one:
// a cycle, a forest, a missing member, an off-tree root, a failed link, an
// edge the graph does not have (between its switches and beyond them), an
// invalid kind, an empty tree under zero, one and several members.
func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cases, verdicts := 0, map[string]int{}
	for round := 0; round < 400; round++ {
		var g *topo.Graph
		var err error
		if round%2 == 0 {
			g, err = topo.Waxman(topo.DefaultGenConfig(8+rng.Intn(56), int64(round)))
		} else {
			g, err = topo.Grid(2+rng.Intn(6), 2+rng.Intn(6), 10*time.Microsecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumSwitches()
		for _, l := range g.Links() {
			if rng.Intn(10) == 0 {
				g.SetLinkDown(l.A, l.B, true)
			}
		}
		kind := Kind(1 + rng.Intn(3))
		base := randomTree(rng, g, kind, 1+rng.Intn(12))
		nodes := base.Nodes()
		members := Members{}
		for _, s := range nodes {
			if rng.Intn(2) == 0 {
				members[s] = SenderReceiver
			}
		}
		randomSwitch := func() topo.SwitchID { return topo.SwitchID(rng.Intn(n)) }
		dropEdge := func(tr *Tree) {
			if tr.NumEdges() > 0 {
				e := tr.Edge(rng.Intn(tr.NumEdges()))
				tr.RemoveEdge(e.A, e.B)
			}
		}
		// A mutation breaks the tree, the member list or the graph; what it
		// did to the graph it undoes in the function it returns.
		mutations := []func(*Tree, Members) (undo func()){
			func(*Tree, Members) func() { return nil },
			func(tr *Tree, _ Members) func() { // cycle, stray edge or self-loop
				tr.AddEdge(randomSwitch(), randomSwitch())
				return nil
			},
			func(tr *Tree, _ Members) func() { // an edge to beyond the graph
				tr.AddEdge(randomSwitch(), topo.SwitchID(n+rng.Intn(3)))
				return nil
			},
			func(tr *Tree, _ Members) func() {
				tr.AddEdge(topo.SwitchID(-1-rng.Intn(3)), randomSwitch())
				return nil
			},
			func(tr *Tree, _ Members) func() { // forest
				dropEdge(tr)
				return nil
			},
			func(tr *Tree, _ Members) func() { // as many edges as a tree, in two pieces
				dropEdge(tr)
				on := tr.Nodes()
				for _, l := range g.Links() {
					if !l.Down && !tr.Has(l.A, l.B) && slices.Contains(on, l.A) && slices.Contains(on, l.B) {
						tr.AddEdge(l.A, l.B)
						break
					}
				}
				return nil
			},
			func(_ *Tree, m Members) func() { // maybe off the tree
				m[randomSwitch()] = Receiver
				return nil
			},
			func(_ *Tree, m Members) func() { // not a switch at all
				m[topo.SwitchID(n+rng.Intn(3))] = Receiver
				return nil
			},
			func(tr *Tree, _ Members) func() {
				tr.Root = randomSwitch()
				return nil
			},
			func(tr *Tree, _ Members) func() {
				tr.Root = topo.SwitchID(n + 1)
				return nil
			},
			func(tr *Tree, _ Members) func() { // a link of the tree fails
				if tr.NumEdges() == 0 {
					return nil
				}
				e := tr.Edge(rng.Intn(tr.NumEdges()))
				g.SetLinkDown(e.A, e.B, true)
				return func() { g.SetLinkDown(e.A, e.B, false) }
			},
			func(tr *Tree, _ Members) func() {
				tr.Kind = Kind(rng.Intn(6))
				return nil
			},
			func(tr *Tree, m Members) func() { // empty tree, 0..3 members
				tr.edges = nil
				clear(m)
				for k := rng.Intn(4); k > 0; k-- {
					m[randomSwitch()] = Receiver
				}
				return nil
			},
		}
		for mi, mutate := range mutations {
			tr, mem := base.Clone(), members.Clone()
			undo := mutate(tr, mem)
			got, want := tr.Validate(g, mem), refValidate(tr, g, mem)
			if undo != nil {
				undo()
			}
			if !sameVerdict(got, want) {
				t.Fatalf("round %d mutation %d: %v members %v:\n  flat: %v\n  map:  %v", round, mi, tr, mem.IDs(), got, want)
			}
			cases++
			verdict := "ok"
			if want != nil {
				verdict = strings.Map(func(r rune) rune {
					if r >= '0' && r <= '9' || r == '-' {
						return -1
					}
					return r
				}, want.Error())
			}
			verdicts[verdict]++
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d cases", cases)
	}
	// Every verdict Validate can return — nil and its eight errors — must
	// have been exercised.
	if len(verdicts) < 9 {
		t.Errorf("only %d distinct verdicts exercised: %v", len(verdicts), verdicts)
	}
	t.Logf("%d cases: %v", cases, verdicts)
}

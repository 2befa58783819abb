package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// Grid and membership shape shared by every workload.
const (
	gridRows     = 4
	gridCols     = 4
	numSwitches  = gridRows * gridCols
	groupSize    = 5 // members of conn 1, base members of conn 2, churners
	dataConn     = 1
	loadedConn   = 2
	maxPayload   = 1400
	smallPayload = 64
)

// The reference layout. A packet crosses every link of its connection's tree
// once, so throughput follows the tree: over random five-of-sixteen draws the
// tree has 4 to 10 links and fanout64 ranges 600k–990k pkts/s — seed noise
// far above any bound. A seed therefore draws one of the grid's symmetries
// and places this layout through it: different switches, the same trees.
//
// conn 1's tree here has 7 links (the mean over random draws is 6.5) and two
// branching switches, so relays both copy and move frames:
//
//	 0───1   2   3
//	     │
//	 4   5───6───7
//	     │       │
//	 8   9  10  11
//	     │
//	12  13  14  15
var (
	refMembers  = []topo.SwitchID{0, 5, 7, 11, 13} // corner, interior, three edges
	refBase     = []topo.SwitchID{1, 9, 10, 13, 15}
	refChurners = []topo.SwitchID{2, 4, 6, 8, 12} // three edges, interior, corner
)

// draw is everything -seed decides. The program under test never sees the
// seed, only the joins and payloads generated from it.
type draw struct {
	Seed int64 `json:"seed"`
	// Symmetry is the grid symmetry the reference layout was placed through:
	// bit 0 flips rows, bit 1 flips columns, bit 2 transposes first.
	Symmetry int `json:"symmetry"`
	// Members are conn 1's SenderReceiver members: the data sources and sinks.
	Members []topo.SwitchID `json:"members"`
	// Base are conn 2's permanent members (churn-loaded churns around them).
	Base []topo.SwitchID `json:"base"`
	// Churners join and leave in this order; none is in Members or Base.
	Churners []topo.SwitchID `json:"churners"`
	// payload holds maxPayload random bytes; a workload sends a prefix.
	payload []byte
}

// symmetry maps a switch through grid symmetry k (0..7).
func symmetry(k int, s topo.SwitchID) topo.SwitchID {
	r, c := int(s)/gridCols, int(s)%gridCols
	if k&4 != 0 {
		r, c = c, r
	}
	if k&1 != 0 {
		r = gridRows - 1 - r
	}
	if k&2 != 0 {
		c = gridCols - 1 - c
	}
	return topo.SwitchID(r*gridCols + c)
}

func mapped(k int, set []topo.SwitchID) []topo.SwitchID {
	out := make([]topo.SwitchID, len(set))
	for i, s := range set {
		out[i] = symmetry(k, s)
	}
	return out
}

// shapeKept reports whether the program's default algorithm builds, for the
// image of set under symmetry k, the image of the tree it builds for set.
// Its tie-breaks go by switch ID, so not every symmetry keeps every shape.
func shapeKept(g *topo.Graph, k int, set []topo.SwitchID) bool {
	tree := func(set []topo.SwitchID) *mctree.Tree {
		m := mctree.Members{}
		for _, s := range set {
			m[s] = mctree.SenderReceiver
		}
		t, err := route.SPH{}.Compute(g, mctree.Symmetric, m)
		if err != nil {
			return nil
		}
		return t
	}
	ref, img := tree(set), tree(mapped(k, set))
	if ref == nil || img == nil || ref.NumEdges() != img.NumEdges() {
		return false
	}
	for _, e := range ref.Edges() {
		if !img.Has(symmetry(k, e.A), symmetry(k, e.B)) {
			return false
		}
	}
	return true
}

// usableSymmetries lists the grid symmetries under which both connections'
// trees keep their shape (the identity always does).
func usableSymmetries() []int {
	g, err := topo.Grid(gridRows, gridCols, 10*time.Microsecond)
	if err != nil {
		return []int{0}
	}
	var ks []int
	for k := 0; k < 8; k++ {
		if shapeKept(g, k, refMembers) && shapeKept(g, k, refBase) {
			ks = append(ks, k)
		}
	}
	return ks
}

// newDraw derives the inputs from seed: the placement of the reference
// layout, the order the churners act in, and the payload bytes.
func newDraw(seed int64) draw {
	rng := rand.New(rand.NewSource(seed))
	ks := usableSymmetries()
	d := draw{Seed: seed, Symmetry: ks[rng.Intn(len(ks))]}
	d.Members = mapped(d.Symmetry, refMembers)
	d.Base = mapped(d.Symmetry, refBase)
	d.Churners = mapped(d.Symmetry, refChurners)
	// Sources send in ascending order; the churners act in a drawn order.
	sort.Slice(d.Members, func(i, j int) bool { return d.Members[i] < d.Members[j] })
	sort.Slice(d.Base, func(i, j int) bool { return d.Base[i] < d.Base[j] })
	rng.Shuffle(len(d.Churners), func(i, j int) { d.Churners[i], d.Churners[j] = d.Churners[j], d.Churners[i] })
	d.payload = make([]byte, maxPayload)
	rng.Read(d.payload)
	return d
}

func (d draw) String() string {
	return fmt.Sprintf("seed %d: grid symmetry %d, conn 1 members %v, conn 2 base %v, churn order %v, payload %x…",
		d.Seed, d.Symmetry, d.Members, d.Base, d.Churners, d.payload[:8])
}

package route_test

import (
	"fmt"
	"log"
	"time"

	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// ExampleSPH computes a Steiner tree over a grid with the shortest-path
// heuristic.
func ExampleSPH() {
	g, err := topo.Grid(3, 3, 10*time.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	members := mctree.Members{
		0: mctree.SenderReceiver,
		8: mctree.SenderReceiver,
	}
	tree, err := route.SPH{}.Compute(g, mctree.Symmetric, members)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edges:", tree.NumEdges())
	fmt.Println("cost:", tree.Cost(g))
	// Output:
	// edges: 4
	// cost: 40µs
}

// ExampleIncremental grafts a new member onto an existing tree instead of
// recomputing from scratch (paper §3.5).
func ExampleIncremental() {
	g, err := topo.Line(5, 10*time.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	alg := route.NewIncremental(route.SPH{})
	members := mctree.Members{0: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	base, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		log.Fatal(err)
	}
	members[4] = mctree.SenderReceiver
	updated, err := alg.Update(g, mctree.Symmetric, members, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("before:", base)
	fmt.Println("after: ", updated)
	// Output:
	// before: symmetric{0-1 1-2}
	// after:  symmetric{0-1 1-2 2-3 3-4}
}

// ExampleDelayBounded enforces a QoS delay bound on the computed tree.
func ExampleDelayBounded() {
	g, err := topo.Line(4, 10*time.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	members := mctree.Members{0: mctree.SenderReceiver, 3: mctree.SenderReceiver}
	alg := route.DelayBounded{Bound: 30 * time.Microsecond}
	tree, err := alg.Compute(g, mctree.Symmetric, members)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("worst member delay:", tree.PathDelay(g, 0, 3))

	tight := route.DelayBounded{Bound: 20 * time.Microsecond}
	if _, err := tight.Compute(g, mctree.Symmetric, members); err != nil {
		fmt.Println("20µs bound:", "unsatisfiable")
	}
	// Output:
	// worst member delay: 30µs
	// 20µs bound: unsatisfiable
}

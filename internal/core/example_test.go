package core_test

import (
	"fmt"
	"log"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// Example runs a minimal D-GMC network: three switches in a line, two
// hosts joining a symmetric connection, and prints the converged tree.
func Example() {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 2*time.Microsecond, flood.Direct)
	if err != nil {
		log.Fatal(err)
	}
	d, err := core.NewDomain(k, core.Config{
		Net:         net,
		ComputeTime: 100 * time.Microsecond,
		Algorithm:   route.SPH{},
	})
	if err != nil {
		log.Fatal(err)
	}

	d.Join(0, 0, 1, mctree.SenderReceiver)
	d.Join(time.Millisecond, 2, 1, mctree.SenderReceiver)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		log.Fatal(err)
	}

	snap, _ := d.Switch(1).Connection(1)
	fmt.Println("members:", snap.Members.IDs())
	fmt.Println("topology:", snap.Topology)
	fmt.Println("computations:", d.Metrics().Computations)
	// Output:
	// members: [0 2]
	// topology: symmetric{0-1 1-2}
	// computations: 2
}

// Quickstart: a five-switch network, one symmetric multipoint connection,
// a few joins and a leave — and a look at how every switch converges on the
// same tree.
//
//	go run ./examples/quickstart
package main

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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small ring of five switches with 10µs links.
	g, err := topo.Ring(5, 10*time.Microsecond)
	if err != nil {
		return err
	}

	// One simulation kernel carries the whole network.
	k := sim.NewKernel()

	// The flooding fabric delivers LSAs; 2µs per-hop forwarding cost.
	net, err := flood.New(k, g, 2*time.Microsecond, flood.Direct)
	if err != nil {
		return err
	}

	// Every switch runs D-GMC; topology computations take 100µs and use
	// the shortest-path Steiner heuristic.
	d, err := core.NewDomain(k, core.Config{
		Net:         net,
		ComputeTime: 100 * time.Microsecond,
		Algorithm:   route.SPH{},
	})
	if err != nil {
		return err
	}

	// Hosts at switches 0, 2 and 3 join connection 1; switch 2 later leaves.
	const conn = 1
	d.Join(0, 0, conn, mctree.SenderReceiver)
	d.Join(1*time.Millisecond, 2, conn, mctree.SenderReceiver)
	d.Join(2*time.Millisecond, 3, conn, mctree.SenderReceiver)
	d.Leave(5*time.Millisecond, 2, conn)

	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("network did not converge: %w", err)
	}

	// Every switch holds the same view.
	for _, s := range g.Switches() {
		snap, ok := d.Switch(s).Connection(conn)
		if !ok {
			return fmt.Errorf("switch %d lost the connection", s)
		}
		fmt.Printf("switch %d: members=%v topology=%s\n", s, snap.Members.IDs(), snap.Topology)
	}
	m := d.Metrics()
	fmt.Printf("\n%d events cost %d topology computations and %d floodings network-wide\n",
		m.Events, m.Computations, net.Floodings())
	return nil
}

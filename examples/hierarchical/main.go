// Hierarchical operation: the paper's "ongoing work" extension. A
// multi-campus network is split into areas with one gateway each; a
// company-wide conference spans three areas. Events flood only their own
// area, and the global tree is assembled from per-area trees plus a
// backbone tree over the gateways.
//
//	go run ./examples/hierarchical
package main

import (
	"fmt"
	"log"
	"time"

	"dgmc/internal/deliver"
	"dgmc/internal/hier"
	"dgmc/internal/mctree"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

const conn = 1

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three campuses of six switches each; gateways 0, 6, 12 in a triangle.
	g := topo.New(18)
	var areas []hier.AreaSpec
	for a := 0; a < 3; a++ {
		base := topo.SwitchID(a * 6)
		ids := make([]topo.SwitchID, 6)
		for i := range ids {
			ids[i] = base + topo.SwitchID(i)
		}
		for i := 0; i < 5; i++ {
			if err := g.AddLink(base+topo.SwitchID(i), base+topo.SwitchID(i+1), 10*time.Microsecond, 1); err != nil {
				return err
			}
		}
		if err := g.AddLink(base, base+3, 15*time.Microsecond, 1); err != nil {
			return err
		}
		areas = append(areas, hier.AreaSpec{Switches: ids, Gateway: base})
	}
	for _, pair := range [][2]topo.SwitchID{{0, 6}, {6, 12}, {12, 0}} {
		if err := g.AddLink(pair[0], pair[1], 60*time.Microsecond, 1); err != nil {
			return err
		}
	}

	k := sim.NewKernel()
	d, err := hier.NewDomain(k, hier.Config{
		Global: g,
		Areas:  areas,
		PerHop: 10 * time.Microsecond,
		Tc:     300 * time.Microsecond,
	})
	if err != nil {
		return err
	}

	// Campus 0 starts a local meeting...
	if err := d.Join(0, 2, conn, mctree.SenderReceiver); err != nil {
		return err
	}
	if err := d.Join(2*time.Millisecond, 4, conn, mctree.SenderReceiver); err != nil {
		return err
	}
	// ...then campuses 1 and 2 dial in, activating the backbone.
	if err := d.Join(4*time.Millisecond, 8, conn, mctree.SenderReceiver); err != nil {
		return err
	}
	if err := d.Join(6*time.Millisecond, 15, conn, mctree.SenderReceiver); err != nil {
		return err
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("hierarchy did not converge: %w", err)
	}

	tree, err := d.GlobalTopology(conn)
	if err != nil {
		return err
	}
	members := d.GlobalMembers(conn)
	fmt.Printf("global conference tree: %s\n", tree)
	fmt.Printf("members: %v (gateways 0, 6, 12 relay between areas)\n", members.IDs())
	if err := tree.Validate(g, members); err != nil {
		return fmt.Errorf("assembled tree invalid: %w", err)
	}

	rep, err := deliver.Multicast(g, tree, members, 2)
	if err != nil {
		return err
	}
	fmt.Println("\ncross-campus delivery from switch 2:")
	for m, lat := range rep.Latency {
		fmt.Printf("  member %-3d latency %v\n", m, lat)
	}

	st := d.Stats()
	fmt.Printf("\nsignaling: %d events, %d computations, %d floodings, %d flood copies\n",
		st.Events, st.Computations, st.Floodings, st.Copies)
	fmt.Println("(each membership event flooded only its own 6-switch area, not all 18 switches)")
	return nil
}

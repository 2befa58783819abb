// Video broadcast: a single-source asymmetric MC (the paper's remote-
// teaching / video-distribution scenario). One sender roots a shortest-path
// tree; receivers churn freely; a link failure on the distribution tree is
// repaired automatically by the protocol.
//
//	go run ./examples/videobroadcast
package main

import (
	"fmt"
	"log"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

const conn lsa.ConnID = 1

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := topo.Waxman(topo.DefaultGenConfig(30, 99))
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 10*time.Microsecond, flood.Direct)
	if err != nil {
		return err
	}
	d, err := core.NewDomain(k, core.Config{
		Net:         net,
		ComputeTime: 300 * time.Microsecond,
		Algorithm:   route.SPT{}, // source-rooted shortest-path trees
		Kinds:       map[lsa.ConnID]mctree.Kind{conn: mctree.Asymmetric},
	})
	if err != nil {
		return err
	}

	// The broadcaster at switch 5 opens the channel; viewers tune in.
	d.Join(0, 5, conn, mctree.Sender)
	viewers := []topo.SwitchID{2, 11, 17, 23, 28}
	for i, v := range viewers {
		d.Join(sim.Time(i+1)*2*time.Millisecond, v, conn, mctree.Receiver)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("broadcast setup did not converge: %w", err)
	}
	snap, _ := d.Switch(0).Connection(conn)
	fmt.Printf("channel up: root=%d, %d viewers, tree %s\n",
		snap.Topology.Root, len(snap.Members.Receivers()), snap.Topology)
	for _, v := range viewers {
		delay := snap.Topology.PathDelay(g, 5, v)
		fmt.Printf("  viewer %-3d start-up delay over tree: %v\n", v, delay)
	}

	// A link on the distribution tree fails; the protocol floods one
	// non-MC LSA plus one MC LSA and repairs the tree.
	edge := snap.Topology.Edges()[0]
	fmt.Printf("\nfailing tree link (%d,%d)...\n", edge.A, edge.B)
	d.FailLink(k.Now()+time.Millisecond, edge.A, edge.B)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("repair did not converge: %w", err)
	}
	snap, _ = d.Switch(0).Connection(conn)
	if snap.Topology.Has(edge.A, edge.B) {
		return fmt.Errorf("tree still uses the failed link")
	}
	fmt.Printf("repaired tree: %s\n", snap.Topology)

	// Viewers churn: two leave, one joins; the sender stays the root.
	d.Leave(k.Now()+time.Millisecond, viewers[0], conn)
	d.Leave(k.Now()+2*time.Millisecond, viewers[1], conn)
	d.Join(k.Now()+3*time.Millisecond, 9, conn, mctree.Receiver)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("churn did not converge: %w", err)
	}
	snap, _ = d.Switch(0).Connection(conn)
	if snap.Topology.Root != 5 {
		return fmt.Errorf("root moved to %d", snap.Topology.Root)
	}
	fmt.Printf("\nafter churn: %d viewers, root still %d, tree %s\n",
		len(snap.Members.Receivers()), snap.Topology.Root, snap.Topology)
	m := d.Metrics()
	fmt.Printf("totals: %d events, %d computations, %d floodings\n",
		m.Events, m.Computations, net.Floodings())
	return nil
}

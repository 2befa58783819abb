// Distributed game state replication: a receiver-only MC. Game servers
// subscribe to a state-update feed as a receiver-only connection; any
// publisher can inject updates by handing them to a contact node. The
// example contrasts D-GMC's receiver-only trees (any member is a contact)
// with a CBT shared tree (only the core is), and measures the traffic
// concentration CBT suffers when many publishers are active.
//
//	go run ./examples/distributedgame
package main

import (
	"fmt"
	"log"
	"time"

	"dgmc/internal/cbt"
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
	g, err := topo.Waxman(topo.DefaultGenConfig(36, 2026))
	if err != nil {
		return err
	}
	replicas := []topo.SwitchID{3, 9, 14, 21, 27, 33}

	// --- D-GMC receiver-only MC ---
	k := sim.NewKernel()
	net, err := flood.New(k, g, 10*time.Microsecond, flood.Direct)
	if err != nil {
		return err
	}
	d, err := core.NewDomain(k, core.Config{
		Net:         net,
		ComputeTime: 300 * time.Microsecond,
		Algorithm:   route.SPH{},
		Kinds:       map[lsa.ConnID]mctree.Kind{conn: mctree.ReceiverOnly},
	})
	if err != nil {
		return err
	}
	for i, r := range replicas {
		d.Join(sim.Time(i)*2*time.Millisecond, r, conn, mctree.Receiver)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("subscription did not converge: %w", err)
	}
	snap, _ := d.Switch(0).Connection(conn)
	fmt.Printf("D-GMC receiver-only MC: %d replicas, tree %s (cost %v)\n",
		len(snap.Members), snap.Topology, snap.Topology.Cost(g))

	// Publishers deliver to the nearest replica (stage 1), which forwards
	// over the MC (stage 2). With D-GMC, *any* member is a valid contact.
	publishers := []topo.SwitchID{0, 18, 30}
	for _, p := range publishers {
		best, bestD := topo.NoSwitch, time.Duration(-1)
		spt := g.ShortestPaths(p)
		for _, r := range replicas {
			if d := spt.Delay[r]; d >= 0 && (bestD < 0 || d < bestD) {
				best, bestD = r, d
			}
		}
		fmt.Printf("  publisher %-3d contacts replica %-3d (unicast leg %v)\n", p, best, bestD)
	}

	// --- CBT comparison: only the core can be contacted ---
	cb := route.NewCoreBased()
	members := mctree.Members{}
	for _, r := range replicas {
		members[r] = mctree.Receiver
	}
	coreSwitch, err := cb.SelectCore(g, members)
	if err != nil {
		return err
	}
	shared, err := cbt.New(g, coreSwitch)
	if err != nil {
		return err
	}
	for _, r := range replicas {
		if err := shared.Join(r); err != nil {
			return err
		}
	}
	fmt.Printf("\nCBT shared tree: core=%d, tree %s (cost %v, %d join-request hops)\n",
		coreSwitch, shared.MCTree(), shared.MCTree().Cost(g), shared.JoinRequests())

	cbtLoads, err := shared.SharedTreeLoads(publishers)
	if err != nil {
		return err
	}
	srcLoads, err := cbt.SourceTreeLoads(g, publishers, replicas)
	if err != nil {
		return err
	}
	fmt.Printf("traffic with %d publishers: CBT max link load %.0f, per-source trees %.0f\n",
		len(publishers), cbtLoads.Max(), srcLoads.Max())

	// Failure drill: cut a tree link and verify D-GMC repairs the feed.
	edge := snap.Topology.Edges()[len(snap.Topology.Edges())/2]
	fmt.Printf("\nfailure drill: cutting (%d,%d)\n", edge.A, edge.B)
	d.FailLink(k.Now()+time.Millisecond, edge.A, edge.B)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("repair did not converge: %w", err)
	}
	snap, _ = d.Switch(0).Connection(conn)
	fmt.Printf("repaired feed tree: %s\n", snap.Topology)
	return nil
}

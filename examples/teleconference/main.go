// Teleconference: the paper's motivating symmetric-MC application. A
// multi-party conference assembles in a burst (everyone dials in at the
// start), members churn mid-call, and the conference ends. The example runs
// the same scenario under two Steiner heuristics and compares the trees and
// the signaling cost.
//
//	go run ./examples/teleconference
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
	"dgmc/internal/workload"
)

const conn = 1

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, alg := range []route.Algorithm{route.SPH{}, route.KMB{}, route.NewIncremental(route.SPH{})} {
		if err := conference(alg); err != nil {
			return fmt.Errorf("%s: %w", alg.Name(), err)
		}
	}
	return nil
}

func conference(alg route.Algorithm) error {
	// A 40-switch campus network.
	g, err := topo.Waxman(topo.DefaultGenConfig(40, 1234))
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 10*time.Microsecond, flood.Direct)
	if err != nil {
		return err
	}
	tf, err := net.FloodTime()
	if err != nil {
		return err
	}
	tc := 500 * time.Microsecond
	round := tf + tc
	d, err := core.NewDomain(k, core.Config{Net: net, ComputeTime: tc, Algorithm: alg})
	if err != nil {
		return err
	}

	// Eight parties dial in within one round — the bursty start of a call.
	burst, err := workload.Bursty(workload.Config{
		N: 40, Events: 8, Seed: 7, Start: round, Window: round, JoinBias: 1.0,
	})
	if err != nil {
		return err
	}
	for _, e := range burst {
		d.Join(e.At, e.Switch, conn, mctree.SenderReceiver)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("call setup did not converge: %w", err)
	}
	setup := *d.Metrics()
	snap, _ := d.Switch(0).Connection(conn)
	fmt.Printf("%-18s call setup: %d members, tree cost %v, %d computations, %d floodings\n",
		alg.Name(), len(snap.Members), snap.Topology.Cost(g), setup.Computations, net.Floodings())

	// Mid-call churn: two parties hang up, one new party joins.
	members := snap.Members.IDs()
	t := k.Now() + 10*round
	d.Leave(t, members[0], conn)
	d.Leave(t+20*round, members[1], conn)
	var newcomer topo.SwitchID
	for _, s := range g.Switches() {
		if _, isMember := snap.Members[s]; !isMember {
			newcomer = s
			break
		}
	}
	d.Join(t+40*round, newcomer, conn, mctree.SenderReceiver)
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("churn did not converge: %w", err)
	}
	churn := *d.Metrics()
	snap, _ = d.Switch(0).Connection(conn)
	fmt.Printf("%-18s after churn: %d members, tree cost %v, +%d computations\n",
		alg.Name(), len(snap.Members), snap.Topology.Cost(g), churn.Computations-setup.Computations)

	// Everyone hangs up; the connection's state disappears network-wide.
	t = k.Now() + 10*round
	for i, s := range snap.Members.IDs() {
		d.Leave(t+sim.Time(i)*5*round, s, conn)
	}
	k.Run()
	if err := d.CheckConverged(); err != nil {
		return fmt.Errorf("teardown did not converge: %w", err)
	}
	for _, s := range g.Switches() {
		if ids := d.Switch(s).Connections(); len(ids) != 0 {
			return fmt.Errorf("switch %d still tracks %v after the call ended", s, ids)
		}
	}
	fmt.Printf("%-18s call ended: all per-connection state destroyed\n\n", alg.Name())
	return nil
}

package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dgmc/internal/bruteforce"
	"dgmc/internal/flood"
	"dgmc/internal/mctree"
	"dgmc/internal/mospf"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// TestSimulationStartsNoGoroutines pins the simulator's execution model:
// every protocol entity, forwarder and baseline switch is an event receiver
// run on the goroutine that calls Run, so building and running a domain
// leaves the goroutine count where it was. It is not parallel, so no other
// test's goroutines come and go while it counts.
func TestSimulationStartsNoGoroutines(t *testing.T) {
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	joins := []topo.SwitchID{0, 5, 10, 15}
	check := func(name string, build func(k *sim.Kernel, net *flood.Network) func() error) {
		t.Helper()
		before := runtime.NumGoroutine()
		k := sim.NewKernel()
		net, err := flood.New(k, g.Clone(), testPerHop, flood.HopByHop)
		if err != nil {
			t.Fatal(err)
		}
		verify := build(k, net)
		k.Run()
		if err := verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines after the run, %d before building it", name, after, before)
		}
	}

	check("core", func(k *sim.Kernel, net *flood.Network) func() error {
		d, err := NewDomain(k, Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range joins {
			d.Join(sim.Time(i)*testTc, s, 1, mctree.SenderReceiver)
		}
		return d.CheckConverged
	})
	check("mospf", func(k *sim.Kernel, net *flood.Network) func() error {
		d, err := mospf.NewDomain(k, mospf.Config{Net: net, ComputeTime: testTc})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range joins {
			d.Join(0, s, 1)
		}
		d.SendDatagram(time.Millisecond, 3, 1)
		return func() error {
			if d.Metrics().Delivered == 0 {
				return errors.New("the datagram reached no member")
			}
			return nil
		}
	})
	check("bruteforce", func(k *sim.Kernel, net *flood.Network) func() error {
		d, err := bruteforce.NewDomain(k, bruteforce.Config{Net: net, ComputeTime: testTc, Algorithm: route.SPH{}})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range joins {
			d.Join(sim.Time(i)*testTc, s, 1, mctree.SenderReceiver)
		}
		return func() error {
			if d.Topology(0, 1) == nil {
				return errors.New("switch 0 installed no topology")
			}
			return nil
		}
	})
}

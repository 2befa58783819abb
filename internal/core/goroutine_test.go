package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
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
// leaves no goroutine behind. Each build-and-run carries a profiler label
// of its own, which every goroutine it starts inherits; the check is that
// no goroutine carrying it is left once the run returns, whatever other
// tests' goroutines do meanwhile.
func TestSimulationStartsNoGoroutines(t *testing.T) {
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	joins := []topo.SwitchID{0, 5, 10, 15}
	check := func(name string, build func(k *sim.Kernel, net *flood.Network) func() error) {
		t.Helper()
		pprof.Do(context.Background(), pprof.Labels(runLabel, name), func(context.Context) {
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
		})
		if n := labelledGoroutines(t, runLabel, name); n > 0 {
			t.Errorf("%s: %d goroutines started by building and running it outlive the run", name, n)
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

// runLabel is the profiler label key each build-and-run of
// TestSimulationStartsNoGoroutines runs under.
const runLabel = "simulation-run"

// labelledGoroutines counts the live goroutines carrying the profiler label
// key=value, read from the goroutine profile: at debug level 1 it groups
// goroutines by stack and labels, each group a "<count> @ <pcs>" line
// followed by a "# labels: {...}" line when it has any.
func labelledGoroutines(t *testing.T, key, value string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q:%q", key, value)
	lines := strings.Split(buf.String(), "\n")
	total := 0
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "# labels: ") || !strings.Contains(lines[i], want) {
			continue
		}
		count, _, _ := strings.Cut(lines[i-1], " @ ")
		n, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("goroutine profile: no count before %q: %q", lines[i], lines[i-1])
		}
		total += n
	}
	return total
}

// Allocation-regression gates for the hot paths the PR-5 performance pass
// slimmed down: these run as ordinary tests (so CI blocks on them), with
// budgets set just above the measured steady-state so a reintroduced
// per-call allocation — a lost pooled buffer, an un-elided clone, a
// variadic Trace call un-guarded — fails loudly rather than rotting
// silently. Budgets are per operation and generous by ~25%; they gate
// regressions, they are not the measured values (see the pr5 column of
// EXPERIMENTS.md's "Performance trajectory" table).
package dgmc_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func gate(t *testing.T, path string, budget float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f", path, got, budget)
	}
}

// TestAllocGateMachineStep bounds one full EventHandler pass (join or
// leave): stamp bookkeeping, SPH proposal computation, flood emission.
func TestAllocGateMachineStep(t *testing.T) {
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		t.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	// Measured 17 allocs for the join+leave pair, ~8.5/step (was 14/step
	// before the pass: per-flood stamp clones, unguarded variadic traces).
	gate(t, "core.Machine.HandleLocalEvent (join+leave pair)", 20, func() {
		m.HandleLocalEvent(nil, join)
		m.HandleLocalEvent(nil, leave)
	})
}

// TestAllocGateTopoCompute bounds the proposal path's allocations to what it
// returns: SPH.Compute allocates the tree and the doublings of its edge slice
// — its working sets live in the pooled kernel scratch — and Tree.Validate
// nothing at all.
func TestAllocGateTopoCompute(t *testing.T) {
	for _, n := range []int{16, 64} {
		g, err := topo.Waxman(topo.DefaultGenConfig(n, 3))
		if err != nil {
			t.Fatal(err)
		}
		members := mctree.Members{}
		for s := 0; len(members) < 6; s += 5 {
			members[topo.SwitchID(s%n)] = mctree.SenderReceiver
		}
		tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
		if err != nil {
			t.Fatal(err)
		}
		// One Tree, and an edge slice grown by doubling from 1 past NumEdges.
		budget := 1.0
		for c := 1; c < 2*tree.NumEdges(); c *= 2 {
			budget++
		}
		gate(t, fmt.Sprintf("route.SPH.Compute (n=%d, %d edges)", n, tree.NumEdges()), budget, func() {
			if _, err := (route.SPH{}).Compute(g, mctree.Symmetric, members); err != nil {
				t.Fatal(err)
			}
		})
		gate(t, fmt.Sprintf("mctree.Tree.Validate (n=%d)", n), 0, func() {
			if err := tree.Validate(g, members); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocGateEventLog pins what keeping the replay log costs once it has
// reached its working size: nothing beyond the LSA it was handed. The log
// is a byte arena and an index appended to and trimmed in place, so a
// window of events that spans two trims must allocate exactly what an
// equal window with no trim in it does — one allocation per trim (a fresh
// array instead of a copy-down) would show as 2/64 of an allocation per
// pair.
func TestAllocGateEventLog(t *testing.T) {
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		t.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	// Exact counts need a quiet runtime: one P, and no collection cycle
	// (which allocates a little of its own) inside a window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocsPerPair := func(pairs int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			m.HandleLocalEvent(nil, join)
			m.HandleLocalEvent(nil, leave)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(pairs)
	}
	limit, retain := core.EventLogLimit, core.EventLogRetain
	period := limit - retain // events between two trims, and join+leave pairs in two
	allocsPerPair(limit)     // past the first trims: the arrays have their final capacity
	acrossTrims := allocsPerPair(period)
	if d := m.EventLogDepth(); d < retain || d >= limit {
		t.Fatalf("log depth %d after %d events, limit %d", d, 2*(limit+period), limit)
	}
	m.CompactEventLogs()
	noTrim := allocsPerPair(period)
	if acrossTrims != noTrim {
		t.Errorf("event log: %.4f allocs per join+leave across two trims, %.4f with none", acrossTrims, noTrim)
	}
}

// TestAllocGateFrameCodec bounds the wire codec. The pooled append path
// must be allocation-free into a reused buffer, and header decode must not
// allocate at all (the payload view aliases the input).
func TestAllocGateFrameCodec(t *testing.T) {
	nm := &lsa.NonMC{Src: 3, Seq: 9, Change: lsa.LinkChange{A: 1, B: 2, Down: true}}
	f := &lsa.Frame{Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 3, From: 3, Seq: 42, Payload: nm.Marshal()}
	buf := make([]byte, 0, 1024)
	gate(t, "lsa.AppendFrame (reused buffer)", 0, func() {
		buf = lsa.AppendFrame(buf[:0], f)
	})
	gate(t, "lsa.AppendFrameWith (reused buffer)", 0, func() {
		buf = lsa.AppendFrameWith(buf[:0], f, nm.AppendMarshal)
	})
	var dec lsa.Frame
	gate(t, "lsa.DecodeFrameInto", 0, func() {
		if err := lsa.DecodeFrameInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The boxed convenience wrapper may allocate the one result it returns.
	gate(t, "lsa.EncodeFrame", 1, func() {
		_ = lsa.EncodeFrame(f)
	})
}

// TestAllocGateFIBForward pins the data plane's steady-state per-packet
// composition — frame decode, payload decode, FIB lookup, in-place forward
// rewrite — at exactly zero allocations. No slack: one allocation per
// packet is the difference between a forwarding plane and a garbage
// generator, and internal/rt's white-box gate holds the same line on the
// real Node.handleData.
func TestAllocGateFIBForward(t *testing.T) {
	g, states, self := benchFIBSetup(t, 8)
	tbl := compileFIB(g, states, self)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 1, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	gate(t, "data-plane forward (decode+lookup+patch)", 0, func() {
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			t.Fatal(err)
		}
		if e := tbl.Lookup(dec.Conn); e == nil || !e.Entered() {
			t.Fatal("gate entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateForwardInstrumented holds the PR-9 line from outside the
// package: the forward composition of TestAllocGateFIBForward plus full
// observability — a flight-recorder event per packet, the deterministic
// sampling decision, and a sampled-hop record — still makes exactly zero
// heap allocations. internal/rt's white-box twin
// (TestHandleDataInstrumentedZeroAlloc) pins the same budget on the real
// Node.handleData with the registry live; this gate proves the obs
// primitives themselves never regress into allocating.
func TestAllocGateForwardInstrumented(t *testing.T) {
	g, states, self := benchFIBSetup(t, 8)
	tbl := compileFIB(g, states, self)
	events := obs.NewFlightRecorder(1024)
	hops := obs.NewFlightRecorder(1024)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 0, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	seq := uint64(0)
	gate(t, "instrumented forward (decode+lookup+patch+record+sample)", 0, func() {
		seq++
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			t.Fatal(err)
		}
		if e := tbl.Lookup(dec.Conn); e == nil || !e.Entered() {
			t.Fatal("gate entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			t.Fatal(err)
		}
		events.Record(obs.RecForward, uint32(dec.Conn), uint32(dec.Src), seq, uint64(self))
		if obs.Sampled(seq, 4) {
			hops.Record(obs.RecForward, uint32(dec.Conn), uint32(dec.Src), seq, uint64(self))
		}
	})
	if events.Written() == 0 || hops.Written() == 0 {
		t.Fatal("recorder gates measured nothing")
	}
}

// TestAllocGateLiveRelay closes the gap between the gates above and the
// running system: they compose the forward path from its parts and read 0,
// while what a live cluster allocates per packet also depends on what the
// runtime does between those parts — buffer rental, queue hand-off, staging,
// settlement. Here a live 3-switch line relays 20 000 packets (0 originates,
// 1 relays, 2 delivers) and the whole process, every goroutine of it, must
// stay under 0.05 heap allocations per delivered packet. The frame pool once
// cost a boxed slice header per round trip: 2.4 per packet on this path.
func TestAllocGateLiveRelay(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Uint64
	fab := rt.NewChanFabric(3)
	c, err := rt.NewCluster(rt.ClusterConfig{
		Graph: g,
		DataHandler: func(topo.SwitchID, lsa.ConnID, topo.SwitchID, uint64, []byte) {
			delivered.Add(1)
		},
	}, fab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const conn = lsa.ConnID(1)
	for _, sw := range []topo.SwitchID{0, 2} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	// Closed loop, a burst at a time, as the repo benchmark drives it: with
	// no backlog building up, the buffers in circulation are the same few
	// from the warm-up on.
	relay := func(packets int) {
		t.Helper()
		const burst = 100
		for sent := 0; sent < packets; sent += burst {
			want := delivered.Load() + burst
			if _, n, err := c.SendDataBatch(0, conn, payload, burst); err != nil || n != burst {
				t.Fatalf("SendDataBatch sent %d of %d: %v", n, burst, err)
			}
			for deadline := time.Now().Add(15 * time.Second); delivered.Load() < want || fab.InFlight() != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("burst at packet %d: %d of %d delivered", sent, burst-(want-delivered.Load()), burst)
				}
				runtime.Gosched()
			}
		}
	}
	relay(4000) // warm: pools filled, queues and stages at their working size
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const packets = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	relay(packets)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / packets
	t.Logf("live relay: %.4f allocs per delivered packet", per)
	if per >= 0.05 {
		t.Errorf("live relay: %.3f allocs per delivered packet, budget is below 0.05", per)
	}
}

// TestAllocGateFloodFanout bounds a full hop-by-hop flood on a 60-switch
// random graph, amortized per delivered copy: simulator event scheduling is
// closure-free and mailbox delivery is inlined into the event record, so
// the cost per copy is the boxed message plus queue growth.
func TestAllocGateFloodFanout(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	net, err := flood.New(k, g, 2*time.Microsecond, flood.HopByHop)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	var copies uint64
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		net.Flood(topo.SwitchID(seq%60), seq)
		k.Run()
		copies = net.Copies()
	})
	// Measured 2.65 allocs per delivered copy (400 per flood; go1.24,
	// linux/amd64); the old per-hop closures and per-call arrival scratch put
	// it well above. copies is cumulative; per-run fan-out is copies/seq.
	perCopy := allocs / (float64(copies) / float64(seq))
	if perCopy > 14 {
		t.Errorf("flood fan-out: %.1f allocs per delivered copy exceeds budget 14 (%.0f allocs/flood)",
			perCopy, allocs)
	}
}

// Micro-benchmarks for the protocol's hot paths: one machine step, frame
// encode/decode, flood fan-out, and topology computation. Where
// bench_test.go regenerates the paper's figures end to end, these isolate
// the unit costs that compose them. The repeatable, audited measurement is
// the repo benchmark (go run ./bench); these are for measuring while you work.
package dgmc_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/explore"
	"dgmc/internal/fib"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/sim"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// nullHost is the core.Host adapter with nothing behind it: the machine
// replays its MC floods into it and drops the rest of its effects after
// every HandleLocalEvent and ReceiveBatch, so BenchmarkMachineStep measures
// the machine alone, not a runtime. The machine takes neighbors as inputs
// to the calls that read them; the field keeps the allocation gates'
// construction of a nullHost as it was.
type nullHost struct {
	neighbors []topo.SwitchID
}

func (nullHost) FloodMC(*lsa.MC) {}

// BenchmarkMachineStep measures one full EventHandler pass — stamp
// bookkeeping, proposal computation, flood emission — on a 16-switch ring.
func BenchmarkMachineStep(b *testing.B) {
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		b.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.HandleLocalEvent(nil, join)
		} else {
			m.HandleLocalEvent(nil, leave)
		}
	}
}

// historySizes are how many events a benchmarked machine has applied: fewer
// than the event log retains, four times as many, and forty times. The last
// two leave the log at the same point of its trim cycle (545 entries) and
// must read alike — cost follows the log's depth, which is bounded, not the
// connection's age; the first holds a 101-entry log and reads lower.
var historySizes = []int{100, 2080, 20000}

// machineAfter returns a 16-switch-ring machine that has handled the given
// number of local join/leave events on connection 1 and ended joined.
func machineAfter(b *testing.B, events int) *core.Machine {
	b.Helper()
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < events|1; i++ {
		ev := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
		if i%2 == 1 {
			ev = core.LocalEvent{Conn: 1, Kind: lsa.Leave}
		}
		m.HandleLocalEvent(nil, ev)
	}
	return m
}

// BenchmarkServeResync measures answering a neighbor that is eight events
// behind — an ordinary loss recovery — as a function of how long the
// connection has lived. It scaled with history while the log was unbounded
// (every request scanned all of it).
func BenchmarkServeResync(b *testing.B) {
	for _, events := range historySizes {
		b.Run(fmt.Sprintf("events%d", events), func(b *testing.B) {
			m := machineAfter(b, events)
			snap, _ := m.Connection(1)
			behind := snap.R.Clone()
			behind[0] -= 8
			req := []any{&lsa.ResyncRequest{Conn: 1, From: 1, R: behind}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ReceiveBatch(nil, req)
			}
		})
	}
}

// BenchmarkMachineClone measures core.Machine.Clone — paid once per
// explored state by the checker and once per rt.Node.Snapshot — against
// history.
func BenchmarkMachineClone(b *testing.B) {
	for _, events := range historySizes {
		b.Run(fmt.Sprintf("events%d", events), func(b *testing.B) {
			m := machineAfter(b, events)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchClone = m.Clone()
			}
		})
	}
}

// BenchmarkExhaustive measures the checker's exhaustive search per
// transition — clone, act, check and hash one branch — on the ring-4
// world with joins at switches 0 and 2 (1 117 states, 3 702 transitions).
func BenchmarkExhaustive(b *testing.B) {
	g, err := topo.Ring(4, 5*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	join := func(s topo.SwitchID) explore.Inject {
		return explore.Inject{Switch: s, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}}
	}
	scn := explore.Scenario{Injects: []explore.Inject{join(0), join(2)}}
	var before, after runtime.MemStats
	transitions := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.Exhaustive(explore.Config{Graph: g}, scn, explore.Options{})
		if err != nil || res.Violation != nil || res.Stats.States != 1117 {
			b.Fatalf("search: err=%v stats=%+v violation=%v", err, res.Stats, res.Violation)
		}
		transitions += res.Stats.Transitions
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(transitions)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/transition")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/transition")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/transition")
}

// BenchmarkSnapshotChecksum measures the canonical state encoding plus its
// SHA-256 — the explorer's dedup key and the snapshot's integrity check —
// against history.
func BenchmarkSnapshotChecksum(b *testing.B) {
	for _, events := range historySizes {
		b.Run(fmt.Sprintf("events%d", events), func(b *testing.B) {
			m := machineAfter(b, events)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.AppendState(buf[:0])
				benchSum = sha256.Sum256(buf)
			}
		})
	}
}

// BenchmarkMachineIdleConns measures what a switch keeps per connection at
// rest: one machine on an n-switch grid that is the one member of each of
// 1 024 connections, its live heap divided by the connections (B/conn) —
// member list, the four stamps, floor, installed tree, a one-entry replay
// log and the machine's maps that hold them.
func BenchmarkMachineIdleConns(b *testing.B) {
	const conns = 1024
	for _, side := range []int{4, 10} {
		b.Run(fmt.Sprintf("n%d", side*side), func(b *testing.B) {
			g, err := topo.Grid(side, side, 5*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			join := core.LocalEvent{Kind: lsa.Join, Role: mctree.SenderReceiver}
			var perConn float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewMachine(core.MachineConfig{
					ID: 0, Graph: g, Algorithm: route.SPH{},
				}, nullHost{neighbors: g.Neighbors(0)})
				if err != nil {
					b.Fatal(err)
				}
				before := liveHeap()
				for c := 1; c <= conns; c++ {
					join.Conn = lsa.ConnID(c)
					m.HandleLocalEvent(nil, join)
				}
				perConn += float64(liveHeap()-before) / conns
				runtime.KeepAlive(m)
			}
			b.ReportMetric(perConn/float64(b.N), "B/conn")
		})
	}
}

// BenchmarkEventLogEntry measures what the replay log keeps per entry
// (B/entry: EventLogBytes over EventLogDepth) on a bystander switch of an
// n-switch grid that applies a busy connection's events as the bench's
// churn workload makes them: permanent members join, then churners join
// one after another and leave one after another, each event carrying the
// SPH proposal for the members after it, so consecutive proposals differ
// in a few edges. The switch applies EventLogLimit+32 events: the log has
// trimmed once and is part way to its next trim.
func BenchmarkEventLogEntry(b *testing.B) {
	for _, shape := range []struct {
		side              int
		members, churners []topo.SwitchID
	}{
		{4, []topo.SwitchID{3, 4, 6, 8, 14}, []topo.SwitchID{11, 1, 7, 5, 15}},
		{10, []topo.SwitchID{3, 8, 13, 18, 23, 28, 33, 38, 43, 48, 53, 58, 63, 68, 73, 78, 83, 88, 93, 98},
			[]topo.SwitchID{1, 11, 22, 47, 76}},
	} {
		n := shape.side * shape.side
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g, err := topo.Grid(shape.side, shape.side, 5*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			members := mctree.Members{}
			st := stamp.New(n)
			var events []any
			event := func(src topo.SwitchID, ev lsa.Event, role mctree.Role) {
				if ev == lsa.Join {
					members[src] = role
				} else {
					delete(members, src)
				}
				tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
				if err != nil {
					b.Fatal(err)
				}
				st.Inc(int(src))
				events = append(events, &lsa.MC{Src: src, Event: ev, Role: role, Conn: 1,
					Proposal: tree, Stamp: st.Clone()})
			}
			for _, s := range shape.members {
				event(s, lsa.Join, mctree.SenderReceiver)
			}
			for i := 0; len(events) < core.EventLogLimit+32; i++ {
				s := shape.churners[i%len(shape.churners)]
				if (i/len(shape.churners))%2 == 0 {
					event(s, lsa.Join, mctree.Sender)
				} else {
					event(s, lsa.Leave, 0)
				}
			}
			var perEntry float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.NewMachine(core.MachineConfig{
					ID: 0, Graph: g, Algorithm: route.SPH{},
				}, nullHost{neighbors: g.Neighbors(0)})
				if err != nil {
					b.Fatal(err)
				}
				for j := range events {
					m.ReceiveBatch(nil, events[j:j+1])
					m.ClearEffects()
				}
				perEntry = float64(m.EventLogBytes()) / float64(m.EventLogDepth())
			}
			b.ReportMetric(perEntry, "B/entry")
		})
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Sinks keep benchmarked results alive (typed: boxing a digest allocates).
var (
	benchClone *core.Machine
	benchSum   [sha256.Size]byte
)

// benchFrame builds a representative wire frame: an MC LSA carrying a
// 10-member proposal tree and a 64-switch vector stamp.
func benchFrame(b *testing.B) *lsa.Frame {
	b.Helper()
	const n = 64
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	members := mctree.Members{}
	for s := 0; len(members) < 10; s += 7 {
		members[topo.SwitchID(s%n)] = mctree.SenderReceiver
	}
	tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		b.Fatal(err)
	}
	st := stamp.New(n)
	for i := 0; i < n; i += 2 {
		st.Inc(i)
	}
	mc := &lsa.MC{Src: 3, Event: lsa.Join, Conn: 1, Role: mctree.SenderReceiver,
		Proposal: tree, Stamp: st}
	return &lsa.Frame{Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 3, From: 3, Seq: 42, Payload: mc.Marshal()}
}

// BenchmarkFrameEncode measures the transmit path: frame header + CRC
// around an already-marshalled LSA.
func BenchmarkFrameEncode(b *testing.B) {
	f := benchFrame(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lsa.EncodeFrame(f)
	}
	b.ReportMetric(float64(len(lsa.EncodeFrame(f))), "frame-bytes")
}

// BenchmarkFrameDecode measures the receive path: frame validation (CRC,
// version, length) plus LSA unmarshalling.
func BenchmarkFrameDecode(b *testing.B) {
	buf := lsa.EncodeFrame(benchFrame(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := lsa.DecodeFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := lsa.Unmarshal(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameChecksum measures a relay's whole checksum work on one data
// frame: summing the body (header and payload, the sub-benchmark's size)
// and sealing a patched trailer. 78 and 1 414 B are the fanout64 and
// fanout1400 bodies; 32 KiB takes the kernel's block loop.
func BenchmarkFrameChecksum(b *testing.B) {
	for _, body := range []int{78, 300, 1414, 32 << 10} {
		b.Run(fmt.Sprint(body), func(b *testing.B) {
			d := &lsa.DataFrame{Conn: 1, Src: 3, Seq: 9, Hops: 16, Payload: make([]byte, body-14)}
			buf := lsa.AppendDataFrame(nil, d, 3)
			b.SetBytes(int64(body))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lsa.SumBody(buf).PatchDataForward(buf, 4, 15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFloodFanout measures hop-by-hop flood fan-out on a 60-switch
// random graph: every switch forwards each new LSA to its other neighbors,
// so one flood costs O(links) simulator events.
func BenchmarkFloodFanout(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(60, 5))
	if err != nil {
		b.Fatal(err)
	}
	var copies uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		net, err := flood.New(k, g, 2*time.Microsecond, flood.HopByHop)
		if err != nil {
			b.Fatal(err)
		}
		net.Flood(topo.SwitchID(i%60), i)
		k.Run()
		copies = net.Copies()
	}
	b.ReportMetric(float64(copies), "copies/flood")
}

// BenchmarkFabricHandoff measures what the single-goroutine hop timing
// (rt.chan_hop64_ns in the repo benchmark) leaves out: a frame changing
// goroutines. A producer sends 64 B data frames through one ChanFabric port
// to a consumer that receives in batches, recycles and settles, the way a
// relay's receive loop does; ns/frame is the producer's clock over frames
// settled, with at most a window of frames in flight so that the queue's
// backlog — unbounded otherwise — is not what is measured. "send" is the per-frame path (pool rental + copy + push per
// frame); "burst32" moves 32 owned frames per SendOwnedBatch, the node's
// fan-out path. procs=1 hands off on one core, procs=2 across two.
func BenchmarkFabricHandoff(b *testing.B) {
	d := lsa.DataFrame{Conn: 1, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: make([]byte, 64)}
	frame := lsa.AppendDataFrame(nil, &d, 0)
	const burst, window, dead = 32, 1024, 2
	for _, batched := range []bool{false, true} {
		for _, procs := range []int{1, 2} {
			name := fmt.Sprintf("send/procs=%d", procs)
			if batched {
				name = fmt.Sprintf("burst%d/procs=%d", burst, procs)
			}
			b.Run(name, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				fab := rt.NewChanFabric(3)
				defer fab.Close()
				if err := fab.Kill(dead); err != nil {
					b.Fatal(err)
				}
				tx, rx := fab.Transport(0), fab.Transport(1)
				// The consumer gives owned buffers back to the producer's free
				// list, one lock per batch; copies the fabric rented itself go
				// back to its pool (a send to a dead port recycles them).
				var mu sync.Mutex
				var free [][]byte
				frames := (b.N + burst - 1) / burst * burst
				consumed := make(chan struct{})
				go func() {
					defer close(consumed)
					var batch [][]byte
					for settled := 0; settled < frames; settled += len(batch) {
						var err error
						if batch, err = rx.RecvBatch(batch); err != nil {
							b.Error(err)
							return
						}
						if batched {
							mu.Lock()
							free = append(free, batch...)
							mu.Unlock()
						} else {
							_ = rx.SendOwnedBatch(dead, batch)
						}
						rx.Release(len(batch))
					}
				}()
				stage := make([][]byte, 0, burst)
				b.ReportAllocs()
				b.ResetTimer()
				for sent := 0; sent < frames; sent += burst {
					for fab.InFlight() > window {
						runtime.Gosched()
					}
					if !batched {
						for i := 0; i < burst; i++ {
							if err := tx.Send(1, frame); err != nil {
								b.Fatal(err)
							}
						}
						continue
					}
					mu.Lock()
					k := min(len(free), burst)
					stage = append(stage, free[len(free)-k:]...)
					free = free[:len(free)-k]
					mu.Unlock()
					for i := range stage {
						stage[i] = append(stage[i][:0], frame...)
					}
					for len(stage) < burst {
						stage = append(stage, append(make([]byte, 0, 512), frame...))
					}
					if err := tx.SendOwnedBatch(1, stage); err != nil {
						b.Fatal(err)
					}
					stage = stage[:0]
				}
				<-consumed
			})
		}
	}
}

// benchFIBSetup builds a 64-switch graph with installed trees on several
// connections, compiled from one relay switch's point of view.
func benchFIBSetup(b testing.TB, conns int) (*topo.Graph, []fibConnState, topo.SwitchID) {
	b.Helper()
	const n = 64
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	states := make([]fibConnState, 0, conns)
	for c := 1; c <= conns; c++ {
		members := mctree.Members{}
		for s := c; len(members) < 10; s += 7 {
			members[topo.SwitchID(s%n)] = mctree.SenderReceiver
		}
		tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
		if err != nil {
			b.Fatal(err)
		}
		states = append(states, fibConnState{conn: lsa.ConnID(c), members: members, tree: tree})
	}
	// Compile at a switch on the first tree so lookups hit a fan-out entry.
	var self topo.SwitchID = topo.NoSwitch
	for s := 0; s < n; s++ {
		if states[0].tree.On(topo.SwitchID(s)) && len(states[0].tree.Neighbors(topo.SwitchID(s))) >= 2 {
			self = topo.SwitchID(s)
			break
		}
	}
	if self == topo.NoSwitch {
		b.Fatal("no relay switch on the benchmark tree")
	}
	return g, states, self
}

type fibConnState struct {
	conn    lsa.ConnID
	members mctree.Members
	tree    *mctree.Tree
}

func compileFIB(g *topo.Graph, states []fibConnState, self topo.SwitchID) *fib.Table {
	bl := fib.NewBuilder(self, g)
	for _, st := range states {
		bl.Add(st.conn, mctree.Symmetric, st.members, st.tree)
	}
	return bl.Build()
}

// BenchmarkFIBForward measures the steady-state per-packet cost of the data
// plane as a relay switch sees it: frame decode, table lookup, and the
// in-place From/hops/CRC rewrite before fan-out. The same composition is
// pinned at zero allocations by TestAllocGateFIBForward.
func BenchmarkFIBForward(b *testing.B) {
	g, states, self := benchFIBSetup(b, 8)
	tbl := compileFIB(g, states, self)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 1, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			b.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			b.Fatal(err)
		}
		e := tbl.Lookup(dec.Conn)
		if e == nil || !e.Entered() {
			b.Fatal("benchmark entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIBCompile measures one full table compilation — the work every
// install/withdraw triggers on each switch — at 8 connections with
// 10-member trees on a 64-switch graph.
func BenchmarkFIBCompile(b *testing.B) {
	g, states, self := benchFIBSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compileFIB(g, states, self).Size() != len(states) {
			b.Fatal("compile lost entries")
		}
	}
}

// BenchmarkFIBInstall measures what one install costs a switch's data
// plane, as rt's recompileFIBLocked pays it through fib.Patch, with 1,
// 1 024 and 4 096 connections live. kept re-installs the entry the table
// already holds — the switches an event leaves alone — and costs one entry
// compile however many connections are live; swapped alternates the
// changed connection between its tree and none, so every install builds a
// new table, which copies the map of every other entry and so grows with
// the connections the install did not touch.
func BenchmarkFIBInstall(b *testing.B) {
	for _, conns := range []int{1, 1024, 4096} {
		g, states, self := benchFIBSetup(b, conns)
		st := states[0]
		for _, swap := range []bool{false, true} {
			name := "kept"
			if swap {
				name = "swapped"
			}
			b.Run(fmt.Sprintf("conns%d/%s", conns, name), func(b *testing.B) {
				tbl := compileFIB(g, states, self)
				var p fib.Patch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tree := st.tree
					if swap && i%2 == 0 {
						tree = nil
					}
					p.Reset(self, g, tbl)
					p.Drop(st.conn)
					p.Add(st.conn, mctree.Symmetric, st.members, tree)
					next := p.Table()
					if (next != tbl) != swap {
						b.Fatalf("install %d: swapped %v, want %v", i, next != tbl, swap)
					}
					tbl = next
				}
				if tbl.Size() != conns {
					b.Fatalf("install left %d entries, want %d", tbl.Size(), conns)
				}
			})
		}
	}
}

// BenchmarkTopoCompute measures one from-scratch topology computation (the
// paper's Tc) at three network sizes; n250 exists to expose the asymptotic
// gap between the old O(n²) linear-min Dijkstra and the heap kernel.
func BenchmarkTopoCompute(b *testing.B) {
	for _, n := range []int{50, 100, 250} {
		g, err := topo.Waxman(topo.DefaultGenConfig(n, 3))
		if err != nil {
			b.Fatal(err)
		}
		members := mctree.Members{}
		for s := 0; len(members) < 10; s += 7 {
			members[topo.SwitchID(s%n)] = mctree.SenderReceiver
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (route.SPH{}).Compute(g, mctree.Symmetric, members); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdBoot is bench/'s setup_s outside bench/: a 16-switch grid
// cluster booted from nothing, ten concurrent joins on two connections, and
// the wait for network-wide agreement — boot cost plus burst-convergence cost,
// with no fixed quiet window on top since WaitConverged counts pending work.
func BenchmarkColdBoot(b *testing.B) {
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := rt.NewCluster(rt.ClusterConfig{Graph: g, ResyncTimeout: 50 * time.Millisecond}, rt.NewChanFabric(g.NumSwitches()))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if err := c.Join(topo.SwitchID(3*j%16), lsa.ConnID(1+j%2), mctree.SenderReceiver); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.WaitConverged(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

package main

import (
	"fmt"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

// Isolated layer timings: single goroutine, public calls only, a fixed
// iteration count per round, the median of layerRounds rounds. They price
// one call; the counts that say how many calls a packet or an event makes
// come from the live windows (windowLayers), and recon multiplies the two.

const layerRounds = 5

// timeOp returns the median cost of f in nanoseconds per call.
func timeOp(iters int, f func()) float64 {
	return timeRounds(func() float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return float64(time.Since(start)) / float64(iters)
	})
}

// timeRounds returns the median of layerRounds calls of round (each of which
// sets itself up and returns nanoseconds per operation).
func timeRounds(round func() float64) float64 {
	var ns []float64
	for r := 0; r < layerRounds; r++ {
		ns = append(ns, round())
	}
	return median(ns)
}

// ownedSender is the fabric port's public ownership-transfer send. The hop
// timing uses it only to hand a received buffer back to the frame pool (a
// killed destination recycles the buffer), which is what a node does after
// handling a frame and the transport contract offers no other way to do.
type ownedSender interface {
	SendOwned(to topo.SwitchID, buf []byte) error
}

// isolatedLayers fills the per-layer metrics that do not depend on the
// workload. scale divides the iteration counts (1 for real runs).
func isolatedLayers(out map[string]float64, d draw, scale int) error {
	it := func(n int) int {
		if n /= scale; n < 10 {
			n = 10
		}
		return n
	}
	g, err := topo.Grid(gridRows, gridCols, 10*time.Microsecond)
	if err != nil {
		return err
	}

	// lsa: data-frame codec at both payload sizes.
	for _, size := range []int{smallPayload, maxPayload} {
		df := lsa.DataFrame{Conn: dataConn, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: d.payload[:size]}
		buf := lsa.AppendDataFrame(nil, &df, 0)
		var f lsa.Frame
		var dec lsa.DataFrame
		var bad int
		out[fmt.Sprintf("lsa.encode_data%d_ns", size)] = timeOp(it(400000), func() {
			buf = lsa.AppendDataFrame(buf[:0], &df, 0)
		})
		out[fmt.Sprintf("lsa.decode_data%d_ns", size)] = timeOp(it(400000), func() {
			if lsa.DecodeFrameInto(&f, buf) != nil || lsa.DecodeDataInto(&dec, &f) != nil {
				bad++
			}
		})
		out[fmt.Sprintf("lsa.patch_forward%d_ns", size)] = timeOp(it(400000), func() {
			if lsa.PatchDataForward(buf, 1, 7) != nil {
				bad++
			}
		})
		if size == smallPayload {
			seq := uint64(1)
			out["lsa.patch_seq_ns"] = timeOp(it(400000), func() {
				seq++
				if lsa.PatchDataSeq(buf, seq) != nil {
					bad++
				}
			})
		}
		if bad > 0 {
			return fmt.Errorf("lsa data codec failed %d times at %d bytes", bad, size)
		}
	}

	// rt: one fabric hop — Send (pool rental, copy, queue push), Recv (batch
	// pop), buffer back to the pool — between two ports of a bare fabric.
	for _, size := range []int{smallPayload, maxPayload} {
		df := lsa.DataFrame{Conn: dataConn, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: d.payload[:size]}
		frame := lsa.AppendDataFrame(nil, &df, 0)
		const dead = 2
		fab := rt.NewChanFabric(3)
		if err := fab.Kill(dead); err != nil {
			return err
		}
		tx, rx := fab.Transport(0), fab.Transport(1)
		recycle, _ := rx.(ownedSender)
		var bad int
		out[fmt.Sprintf("rt.chan_hop%d_ns", size)] = timeOp(it(200000), func() {
			if tx.Send(1, frame) != nil {
				bad++
				return
			}
			buf, err := rx.Recv()
			if err != nil {
				bad++
			} else if recycle != nil {
				_ = recycle.SendOwned(dead, buf) // refused: the port recycles buf
			}
		})
		fab.Close()
		if bad > 0 {
			return fmt.Errorf("chan fabric hop failed %d times", bad)
		}
	}
	if out["rt.udp_hop_us"], err = udpHop(d, it(4000)); err != nil {
		return err
	}

	// route, topo: one tree over the members plus two churners; one SSSP.
	members := mctree.Members{}
	for _, s := range d.Members {
		members[s] = mctree.SenderReceiver
	}
	for _, s := range d.Churners[:2] {
		members[s] = mctree.Sender
	}
	var tree *mctree.Tree
	out["route.sph_compute_us"] = timeOp(it(20000), func() {
		tree, err = route.SPH{}.Compute(g, mctree.Symmetric, members)
	}) / 1e3
	if err != nil {
		return err
	}
	sc := topo.AcquireSSSP()
	out["topo.sssp_us"] = timeOp(it(100000), func() {
		sc.Reset(numSwitches)
		sc.Seed(d.Members[0])
		g.RunSSSP(sc, 0)
	}) / 1e3
	topo.ReleaseSSSP(sc)

	// fib: compile both connections' entries at a member; look one up.
	base := mctree.Members{}
	for _, s := range d.Base {
		base[s] = mctree.SenderReceiver
	}
	baseTree, err := route.SPH{}.Compute(g, mctree.Symmetric, base)
	if err != nil {
		return err
	}
	var table *fib.Table
	out["fib.compile_us"] = timeOp(it(100000), func() {
		b := fib.NewBuilder(d.Members[0], g)
		b.Add(dataConn, mctree.Symmetric, members, tree)
		b.Add(loadedConn, mctree.Symmetric, base, baseTree)
		table = b.Build()
	}) / 1e3
	var missing int
	out["fib.lookup_ns"] = timeOp(it(2000000), func() {
		if table.Lookup(dataConn) == nil {
			missing++
		}
	})
	if missing > 0 {
		return fmt.Errorf("fib lookup missed %d times", missing)
	}

	// core, lsa MC codec: stand-alone machines behind a stub host.
	if err := machineLayers(out, g, d, it(2000)); err != nil {
		return err
	}

	// obs: one trace entry into a span collector.
	col := obs.NewSpanCollector(1024)
	var n uint32
	out["obs.span_trace_ns"] = timeOp(it(200000), func() {
		n++
		col.Trace(core.TraceEntry{At: time.Duration(n), Kind: core.TraceRecv, Switch: 1, Conn: dataConn,
			Chain: core.ChainID{Origin: 2, Seq: n / 16}, Detail: "recv"})
	})
	return nil
}

// udpHop times Send → Recv between two loopback sockets, in microseconds.
func udpHop(d draw, iters int) (float64, error) {
	fab, err := rt.NewUDPFabric(2)
	if err != nil {
		return 0, err
	}
	defer fab.Close()
	df := lsa.DataFrame{Conn: dataConn, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: d.payload[:smallPayload]}
	frame := lsa.AppendDataFrame(nil, &df, 0)
	tx, rx := fab.Transport(0), fab.Transport(1)
	var bad int
	ns := timeOp(iters, func() {
		if tx.Send(1, frame) != nil {
			bad++
			return
		}
		if _, err := rx.Recv(); err != nil {
			bad++
		}
	})
	if bad > 0 {
		return 0, fmt.Errorf("udp hop failed %d times", bad)
	}
	return ns / 1e3, nil
}

// stubHost is a core.Host with no runtime behind it: it keeps the MC LSAs
// the machine floods and ignores everything else.
type stubHost struct {
	neighbors []topo.SwitchID
	flooded   []*lsa.MC
}

func (h *stubHost) FloodMC(m *lsa.MC)                                            { h.flooded = append(h.flooded, m) }
func (*stubHost) FloodNonMC(*lsa.NonMC)                                          {}
func (*stubHost) SendUnicast(topo.SwitchID, any)                                 {}
func (*stubHost) HoldCompute(any)                                                {}
func (*stubHost) PendingMC(lsa.ConnID) bool                                      { return false }
func (h *stubHost) Neighbors() []topo.SwitchID                                   { return h.neighbors }
func (*stubHost) FabricLinkChanged(lsa.LinkChange)                               {}
func (*stubHost) ArmResync(lsa.ConnID)                                           {}
func (*stubHost) SelfNudge(lsa.ConnID)                                           {}
func (*stubHost) NoteInstall()                                                   {}
func (*stubHost) ForwardingChanged(lsa.ConnID)                                   {}
func (*stubHost) Trace(core.TraceKind, core.ChainID, lsa.ConnID, string, ...any) {}
func (*stubHost) TraceEnabled() bool                                             { return false }

// machineLayers times the protocol machine alone. Each round builds the
// conn-1 membership on an origin machine (a churner) and a receiver machine
// (a bystander) by replaying the members' join LSAs, then times the origin's
// HandleLocalEvent over a join/leave churn and the receiver's ReceiveBatch of
// the LSAs that churn floods — copied through the wire codec, which is also
// where the MC marshal/unmarshal figures come from.
func machineLayers(out map[string]float64, g *topo.Graph, d draw, events int) error {
	events = events / 2 * 2
	newMachine := func(id topo.SwitchID) (*core.Machine, *stubHost, error) {
		h := &stubHost{neighbors: g.Neighbors(id)}
		m, err := core.NewMachine(core.MachineConfig{ID: id, Graph: g, Algorithm: route.SPH{}}, h)
		return m, h, err
	}
	wire := func(m *lsa.MC) (*lsa.MC, error) {
		mc, _, err := lsa.Unmarshal(m.Marshal())
		return mc, err
	}
	bystander := topo.NoSwitch
	used := map[topo.SwitchID]bool{d.Churners[0]: true}
	for _, s := range d.Members {
		used[s] = true
	}
	for s := topo.SwitchID(0); s < numSwitches; s++ {
		if !used[s] {
			bystander = s
			break
		}
	}
	var sample *lsa.MC
	var failure error
	var localNS, recvNS []float64
	for r := 0; r < layerRounds && failure == nil; r++ {
		origin, oh, err := newMachine(d.Churners[0])
		if err != nil {
			return err
		}
		recv, _, err := newMachine(bystander)
		if err != nil {
			return err
		}
		// Members join one after another; each newcomer first hears every
		// earlier join, so no two events are concurrent.
		var log []*lsa.MC
		for _, s := range d.Members {
			m, mh, err := newMachine(s)
			if err != nil {
				return err
			}
			for _, e := range log {
				mc, err := wire(e)
				if err != nil {
					return err
				}
				m.ReceiveBatch(nil, []any{mc})
			}
			mh.flooded = nil
			m.HandleLocalEvent(nil, core.LocalEvent{Conn: dataConn, Kind: lsa.Join, Role: mctree.SenderReceiver})
			log = append(log, mh.flooded...)
			for _, f := range mh.flooded {
				for _, dst := range []*core.Machine{origin, recv} {
					mc, err := wire(f)
					if err != nil {
						return err
					}
					dst.ReceiveBatch(nil, []any{mc})
				}
			}
		}
		if snap, ok := recv.Connection(dataConn); !ok || len(snap.Members) != groupSize || !snap.R.Equal(snap.C) {
			return fmt.Errorf("stand-alone receiver did not learn conn %d's members", dataConn)
		}
		oh.flooded = nil
		start := time.Now()
		for i := 0; i < events; i++ {
			ev := core.LocalEvent{Conn: dataConn, Kind: lsa.Join, Role: mctree.Sender}
			if i%2 == 1 {
				ev = core.LocalEvent{Conn: dataConn, Kind: lsa.Leave}
			}
			origin.HandleLocalEvent(nil, ev)
		}
		localNS = append(localNS, float64(time.Since(start))/float64(events))
		if len(oh.flooded) != events {
			return fmt.Errorf("stand-alone machine flooded %d LSAs for %d events", len(oh.flooded), events)
		}
		copies := make([][]any, events)
		for i, f := range oh.flooded {
			mc, err := wire(f)
			if err != nil {
				return err
			}
			copies[i] = []any{mc}
		}
		sample = oh.flooded[0]
		start = time.Now()
		for _, batch := range copies {
			recv.ReceiveBatch(nil, batch)
		}
		recvNS = append(recvNS, float64(time.Since(start))/float64(events))
		if snap, ok := recv.Connection(dataConn); !ok || !snap.R.Equal(snap.C) {
			failure = fmt.Errorf("stand-alone receiver did not commit the replayed events")
		}
	}
	if failure != nil {
		return failure
	}
	out["core.local_event_us"] = median(localNS) / 1e3
	out["core.receive_batch_us"] = median(recvNS) / 1e3

	var enc []byte
	out["lsa.mc_marshal_ns"] = timeOp(events*50, func() { enc = sample.AppendMarshal(enc[:0]) })
	var bad int
	out["lsa.mc_unmarshal_ns"] = timeOp(events*50, func() {
		if _, _, err := lsa.Unmarshal(enc); err != nil {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("MC LSA failed to unmarshal %d times", bad)
	}
	return nil
}

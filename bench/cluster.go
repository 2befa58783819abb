package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/mctree"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

// bootOpts are the knobs only the traced run's diagnostics turn: end-to-end
// runs always boot the zero value (in-process fabric, no tracer, no flight
// recorder, no registry).
type bootOpts struct {
	udp           bool        // UDPFabric on loopback instead of ChanFabric
	tracer        core.Tracer // shared by all nodes
	flightRecords int
	sampleEvery   int
}

// bed is one booted, converged 16-switch cluster with both connections set up.
type bed struct {
	c     *rt.Cluster
	fab   *rt.ChanFabric // nil over UDP
	nodes []*rt.Node
	sink  *sink
	d     draw
}

// boot starts a cold cluster on a 4x4 grid with 10 µs links, joins conn 1's
// members and conn 2's base as SenderReceiver, and waits for network-wide
// agreement. The returned duration is that whole sequence: one cold boot.
func boot(d draw, payloadLen int, o bootOpts) (*bed, time.Duration, error) {
	g, err := topo.Grid(gridRows, gridCols, 10*time.Microsecond)
	if err != nil {
		return nil, 0, err
	}
	b := &bed{d: d, sink: newSink(d.Members, d.payload[:payloadLen])}
	start := time.Now()
	var fabric rt.Fabric
	if o.udp {
		if fabric, err = rt.NewUDPFabric(numSwitches); err != nil {
			return nil, 0, err
		}
	} else {
		b.fab = rt.NewChanFabric(numSwitches)
		fabric = b.fab
	}
	b.c, err = rt.NewCluster(rt.ClusterConfig{
		Graph:         g,
		ResyncTimeout: 50 * time.Millisecond,
		DataHandler:   b.sink.handle,
		Tracer:        o.tracer,
		FlightRecords: o.flightRecords,
		SampleEvery:   o.sampleEvery,
	}, fabric)
	if err != nil {
		return nil, 0, err
	}
	for _, sw := range d.Members {
		if err := b.c.Join(sw, dataConn, mctree.SenderReceiver); err != nil {
			b.c.Close()
			return nil, 0, err
		}
	}
	for _, sw := range d.Base {
		if err := b.c.Join(sw, loadedConn, mctree.SenderReceiver); err != nil {
			b.c.Close()
			return nil, 0, err
		}
	}
	if err := b.c.WaitConverged(30 * time.Second); err != nil {
		b.c.Close()
		return nil, 0, err
	}
	took := time.Since(start)
	b.nodes = b.c.Nodes()
	return b, took, nil
}

// coldBoots boots n clusters one after another, closing all but the last, and
// returns the last one with every boot's duration in seconds.
func coldBoots(n int, d draw, payloadLen int) (*bed, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		b, took, err := boot(d, payloadLen, bootOpts{})
		if err != nil {
			return nil, nil, fmt.Errorf("cold boot %d: %w", i+1, err)
		}
		secs = append(secs, took.Seconds())
		if i == n-1 {
			return b, secs, nil
		}
		b.c.Close()
	}
}

// observer decides when a membership event is installed network-wide: every
// switch's FIB-compile counter has advanced past its value from before the
// event. Atomic loads only — Node.Connection would take the machine lock and
// perturb what it measures.
type observer struct {
	nodes []*rt.Node
	pre   [numSwitches]uint64
	next  int // switches below next have already been seen to advance
}

func (o *observer) arm() {
	for i, n := range o.nodes {
		o.pre[i] = n.FIBCompiles()
	}
	o.next = 0
}

func (o *observer) installed() bool {
	for ; o.next < len(o.nodes); o.next++ {
		if o.nodes[o.next].FIBCompiles() <= o.pre[o.next] {
			return false
		}
	}
	return true
}

// edge is one sample of every counter a window is bracketed by.
type edge struct {
	at       time.Time
	cpu      time.Duration // process user+sys
	mem      runtime.MemStats
	fwd      rt.ForwardStats
	core     core.Metrics // summed over switches
	compiles uint64
}

func (b *bed) edge() edge {
	e := edge{cpu: processCPU(), fwd: b.c.ForwardStats()}
	for _, n := range b.nodes {
		m := n.Metrics()
		e.core.Events += m.Events
		e.core.Computations += m.Computations
		e.core.ComputeNanos += m.ComputeNanos
		e.core.Installs += m.Installs
		e.core.MCLSAs += m.MCLSAs
		e.core.OutOfOrderLSAs += m.OutOfOrderLSAs
		e.core.ResyncRequests += m.ResyncRequests
		e.compiles += n.FIBCompiles()
	}
	runtime.ReadMemStats(&e.mem)
	e.at = time.Now()
	return e
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MB: VmHWM of
// /proc/self/status, which starts afresh at exec. getrusage's ru_maxrss does
// not — exec folds the resident set the process had as a fork of its parent
// into it, so under `go run` it reads the go command's 25 MB on workloads that
// peak at 15 MB — and is only the fall-back where /proc is missing.
func peakRSSMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// retainedMB is the live heap after two collections with the cluster still
// up (two, so sync.Pool victims are gone and finalizers have run).
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

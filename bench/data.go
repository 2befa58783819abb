package main

import (
	"bytes"
	"sync/atomic"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// Closed-loop data driver: one client, one window of windowPackets in flight.
const (
	batchPackets  = 32                       // per SendDataBatch call
	windowPackets = batchPackets * groupSize // 160: one batch from each source
	// Each packet reaches the four other members.
	deliveriesPerPacket = groupSize - 1
	// stallTicks 1 ms ticks without a single delivery (and, on the in-process
	// fabric, with nothing in flight) declare the rest of a burst lost. A bare
	// InFlight()==0 is not enough: a relay descheduled between queueing a frame
	// and counting it can show zero in flight with work still to come.
	stallTicks = 50
)

// lane counts the deliveries at one switch on its own cache line, so the four
// receive goroutines a packet ends on never share a counter.
type lane struct {
	n      atomic.Int64
	target atomic.Int64
	_      [48]byte
}

// sink is the cluster's DataHandler: it counts deliveries per switch, checks
// what arrived, and wakes the driver when the burst's last delivery lands.
type sink struct {
	lanes   [numSwitches]lane
	pending atomic.Int32 // member lanes still short of their target
	done    chan struct{}
	members []topo.SwitchID
	payload []byte
	bad     atomic.Int64 // deliveries with the wrong connection or bytes
	// floor is, per source, the first sequence number of the bursts not given
	// up on. A delivery below it is a straggler of a burst already counted as
	// lost: it goes to stale and never towards a later burst's target.
	floor [numSwitches]atomic.Uint64
	stale atomic.Int64
}

func newSink(members []topo.SwitchID, payload []byte) *sink {
	return &sink{done: make(chan struct{}, 1), members: members, payload: payload}
}

// handle runs on the delivering switch's receive goroutine and never blocks.
// Every delivery is checked for connection and length; one in 64 (by
// sequence number) is compared byte for byte, so the check stays far below
// the per-packet cost it guards.
func (s *sink) handle(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, p []byte) {
	if conn != dataConn || len(p) != len(s.payload) || (seq&63 == 0 && !bytes.Equal(p, s.payload)) {
		s.bad.Add(1)
	}
	if seq < s.floor[src].Load() {
		s.stale.Add(1)
		return
	}
	l := &s.lanes[at]
	if l.n.Add(1) == l.target.Load() && s.pending.Add(-1) == 0 {
		select {
		case s.done <- struct{}{}:
		default:
		}
	}
}

// delivered sums the member lanes and the stragglers.
func (s *sink) delivered() int64 {
	sum := s.stale.Load()
	for _, m := range s.members {
		sum += s.lanes[m].n.Load()
	}
	return sum
}

// dataDriver sends bursts and blocks until each is delivered everywhere. It
// never spins: while a burst is in the cluster the driver's goroutine is
// parked, so the process's CPU time is the program's own.
type dataDriver struct {
	b     *bed
	spans *spanLog // nil when untraced

	bursts  uint64
	sent    uint64 // packets the runtime accepted
	good    uint64 // of those, delivered to every member
	refused uint64 // packets SendDataBatch refused
	lost    uint64 // packets (at most) not delivered to every member
	sendNS  int64  // wall time inside SendDataBatch; traced runs only
}

// burst sends one window and waits for its 4×160 deliveries.
func (d *dataDriver) burst(tick *time.Ticker) {
	s := d.b.sink
	const perLane = int64(batchPackets * deliveriesPerPacket)
	for _, m := range s.members {
		l := &s.lanes[m]
		l.target.Store(l.n.Load() + perLane)
	}
	s.pending.Store(int32(len(s.members)))
	d.bursts++
	root := d.spans.begin("burst", -1, d.bursts)
	var accepted uint64
	var next [groupSize]uint64 // per source, the sequence number after this burst
	for i, src := range s.members {
		sp := d.spans.begin("rt.SendDataBatch", root, d.bursts)
		// A refusal shows as n < batchPackets and is counted below, whatever its cause.
		first, n, _ := d.b.c.SendDataBatch(src, dataConn, s.payload, batchPackets)
		d.sendNS += int64(d.spans.end(sp))
		accepted += uint64(n)
		next[i] = first + uint64(n)
	}
	d.sent += accepted
	d.refused += windowPackets - accepted
	wait := d.spans.begin("burst.wait", root, d.bursts)
	// A missing delivery spoils at most one packet, and only one that was sent.
	lost := min(d.await(tick), accepted)
	d.spans.end(wait)
	d.spans.end(root)
	if lost > 0 {
		for i, src := range s.members {
			if next[i] > 0 {
				s.floor[src].Store(next[i])
			}
		}
	}
	d.lost += lost
	d.good += accepted - lost
}

// await parks until the sink reports the burst complete. The done channel is
// only a wake-up: pending==0 is the truth, so a signal left over from an
// earlier burst is harmless. It returns how many deliveries are missing once
// the burst is given up on.
func (d *dataDriver) await(tick *time.Ticker) uint64 {
	s := d.b.sink
	last, idle := s.delivered(), 0
	for {
		select {
		case <-s.done:
			if s.pending.Load() == 0 {
				return 0
			}
		case <-tick.C:
			if s.pending.Load() == 0 {
				return 0
			}
			if now := s.delivered(); now != last {
				last, idle = now, 0
				continue
			}
			if idle++; idle < stallTicks || (d.b.fab != nil && d.b.fab.InFlight() != 0) {
				continue
			}
			var short int64
			for _, m := range s.members {
				if l := &s.lanes[m]; l.n.Load() < l.target.Load() {
					short += l.target.Load() - l.n.Load()
				}
			}
			if short > windowPackets {
				short = windowPackets // a missing delivery spoils at most one packet
			}
			return uint64(short)
		}
	}
}

// slice is one measured stretch of a data window.
type slice struct {
	from, to time.Time
	packets  uint64        // sent and fully delivered
	cpu      time.Duration // process CPU spent
}

func (s slice) rate() float64 { return float64(s.packets) / s.to.Sub(s.from).Seconds() }

// dataWindow is what one measured data window yields.
type dataWindow struct {
	slices   []slice
	burstsUS []float64 // every burst's send-to-last-delivery time; traced runs only
	sendNS   int64     // wall time inside SendDataBatch; traced runs only
	from, to edge
}

// rates returns the packet rate of each slice.
func (w dataWindow) rates() []float64 {
	var out []float64
	for _, s := range w.slices {
		out = append(out, s.rate())
	}
	return out
}

// cpuPerPacketUS is the process CPU over the window per fully delivered
// packet, in microseconds.
func (w dataWindow) cpuPerPacketUS() float64 {
	var cpu time.Duration
	var packets uint64
	for _, s := range w.slices {
		cpu += s.cpu
		packets += s.packets
	}
	if packets == 0 {
		return 0
	}
	return float64(cpu) / 1e3 / float64(packets)
}

// run drives bursts for dur and discards the figures (warm-up).
func (d *dataDriver) run(dur time.Duration) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for end := time.Now().Add(dur); time.Now().Before(end); {
		d.burst(tick)
	}
}

// measure drives bursts through `slices` consecutive slices of at least
// `length` each, sampling the window-edge counters before and after.
func (d *dataDriver) measure(slices int, length time.Duration) dataWindow {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	w := dataWindow{from: d.b.edge()}
	sendStart := d.sendNS
	at, pkts, cpu := time.Now(), d.good, processCPU()
	prev := at
	for len(w.slices) < slices {
		d.burst(tick)
		now := time.Now()
		if d.spans != nil { // untraced runs keep the harness's heap out of mem_retained_mb
			w.burstsUS = append(w.burstsUS, float64(now.Sub(prev))/1e3)
		}
		prev = now
		if now.Sub(at) >= length {
			nowCPU := processCPU()
			w.slices = append(w.slices, slice{from: at, to: now, packets: d.good - pkts, cpu: nowCPU - cpu})
			at, pkts, cpu = now, d.good, nowCPU
		}
	}
	w.sendNS = d.sendNS - sendStart
	w.to = d.b.edge()
	return w
}

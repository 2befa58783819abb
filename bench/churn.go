package main

import (
	"runtime"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
)

// cycle is the length of the join/leave pattern: each of the five churners
// joins, then each leaves. After a whole number of cycles the connection is
// back to its permanent members.
const cycle = 2 * groupSize

// sleepPollEvery is the sleep-sweep poller's period. A yielding poller is
// starved behind saturated run queues and ends up timing its own scheduling
// delay, so the loaded workload sleeps between sweeps instead.
const sleepPollEvery = 20 * time.Microsecond

// injector is the one control-plane client: it injects join/leave events at
// the churner switches and waits for each to be installed network-wide.
type injector struct {
	b         *bed
	conn      lsa.ConnID
	sleepPoll bool          // sleep-sweep instead of yield-sweep
	timeout   time.Duration // an event not installed by then has failed
	spans     *spanLog      // nil when untraced
	obs       observer

	next     int // position in the join/leave cycle
	injected uint64
	failed   uint64 // refused by the runtime or not installed in time
}

func newInjector(b *bed, conn lsa.ConnID, sleepPoll bool, timeout time.Duration, spans *spanLog) *injector {
	return &injector{b: b, conn: conn, sleepPoll: sleepPoll, timeout: timeout, spans: spans,
		obs: observer{nodes: b.nodes}}
}

// event injects the next event of the cycle and returns the time from
// injection to the last switch installing it.
func (in *injector) event() time.Duration {
	i := in.next
	in.next++
	in.injected++
	sw := in.b.d.Churners[i%groupSize]
	join := (i/groupSize)%2 == 0
	op := uint64(i + 1)

	in.obs.arm()
	root := in.spans.begin("event", -1, op)
	start := time.Now()
	var err error
	if join {
		sp := in.spans.begin("rt.Join", root, op)
		err = in.b.c.Join(sw, in.conn, mctree.Sender)
		in.spans.end(sp)
	} else {
		sp := in.spans.begin("rt.Leave", root, op)
		err = in.b.c.Leave(sw, in.conn)
		in.spans.end(sp)
	}
	wait := in.spans.begin("install.wait", root, op)
	ok := err == nil
	for ok && !in.obs.installed() {
		if in.sleepPoll {
			time.Sleep(sleepPollEvery)
		} else {
			runtime.Gosched()
		}
		ok = time.Since(start) < in.timeout
	}
	took := time.Since(start)
	in.spans.end(wait)
	in.spans.end(root)
	if !ok {
		in.failed++
	}
	return took
}

// finishCycle injects until every churner has left again.
func (in *injector) finishCycle() {
	for in.next%cycle != 0 {
		in.event()
	}
}

// ctlWindow is what one measured control-plane window yields.
type ctlWindow struct {
	installUS []float64     // injection → network-wide install, per event
	lateUS    []float64     // open loop only: how late each injection was
	busy      time.Duration // closed loop only: time spent inside groups
	from, to  edge
}

// groups shapes a closed-loop window: count groups of per back-to-back
// events, one group starting every `every`. Spreading the groups over the
// window — instead of one dense run — samples the host over the whole window:
// on a shared machine the install latency drifts by tens of percent from one
// second to the next, and a dense 4 s run reads whichever mood it lands in.
// It also gives the control window the same length as the data windows.
type groups struct {
	count, per int
	every      time.Duration
}

// closedLoop injects events back to back (the next as soon as the previous is
// installed everywhere) in groups, discards one extra leading group as
// warm-up, and measures the rest.
func (in *injector) closedLoop(g groups) ctlWindow {
	// group runs one group with both Ps kept awake and returns its latencies.
	group := func() []float64 {
		awake := make(chan struct{})
		go keepAwake(awake)
		defer close(awake)
		us := make([]float64, g.per)
		for i := range us {
			us[i] = float64(in.event()) / 1e3
		}
		return us
	}
	group()
	w := ctlWindow{from: in.b.edge()}
	start := time.Now()
	for k := 0; k < g.count; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * g.every)))
		began := time.Now()
		w.installUS = append(w.installUS, group()...)
		w.busy += time.Since(began)
	}
	w.to = in.b.edge()
	in.finishCycle()
	return w
}

// keepAwake yields in a loop until stop closes. With the yield-sweep poller
// it keeps both Ps out of the runtime's idle path while a group of events is
// measured. A parked P is woken through the hypervisor on a virtual machine
// (futex, IPI, a halted vCPU), which costs 10 µs to 3 ms depending on the
// neighbours: with one spinner the install median of identical runs ranged
// 72–110 µs and its 99th percentile sat at 3 ms; with both Ps awake the
// runs agree within a few percent. The figure is the control plane's own
// work plus goroutine hand-offs, without the host's wake-up latency.
func keepAwake(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
			runtime.Gosched()
		}
	}
}

// timedEvent is one open-loop event: when it was injected, how late that was
// against the schedule, and how long the install took.
type timedEvent struct {
	at     time.Time
	lateUS float64
	tookUS float64
}

// openLoop injects at a fixed rate until stop closes, on a schedule that does
// not slow down when installs do: event k is due at start + k/rate. Latency
// runs from the injection, and how far the injection trailed its due time is
// kept beside it, so generator delay is reported instead of hidden or folded
// into the program's figure.
func (in *injector) openLoop(rate int, stop <-chan struct{}) []timedEvent {
	var out []timedEvent
	period := time.Second / time.Duration(rate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			timer.Stop()
			in.finishCycle()
			return out
		case <-timer.C:
		}
		at := time.Now()
		took := in.event()
		out = append(out, timedEvent{at: at, lateUS: float64(at.Sub(due)) / 1e3, tookUS: float64(took) / 1e3})
	}
}

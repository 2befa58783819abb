package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, measured from the start of the
// simulation. It reuses time.Duration so callers can write 10*sim.Microsecond
// style arithmetic with the standard library's duration constants.
type Time = time.Duration

// Convenient re-exports so simulation code does not need to import "time"
// only for unit constants.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// ErrStopped is returned by process operations after the kernel has been
// shut down. Process bodies do not normally observe it: the kernel unwinds
// blocked processes internally during Shutdown.
var ErrStopped = errors.New("sim: kernel stopped")

// event is a single entry in the kernel's event queue. Mailbox deliveries —
// by far the most common event in protocol simulations — are stored inline
// (mb, msg) instead of behind a heap-allocated closure, so scheduling a send
// costs no allocation beyond any boxing of msg itself.
type event struct {
	at  Time
	seq uint64
	fn  func()
	mb  *Mailbox
	msg any
}

func (e *event) run() {
	if e.mb != nil {
		e.mb.deliver(e.msg)
		return
	}
	e.fn()
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (time, sequence) — a deterministic total order for simultaneous events.
// Storing values rather than pointers keeps the queue in one contiguous
// allocation that amortises to zero as the simulation runs.
type eventHeap []event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop fn/msg references so they can be collected
	*h = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && eventLess(&s[r], &s[l]) {
			c = r
		}
		if !eventLess(&s[c], &s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// Stats reports what a completed Run did.
type Stats struct {
	// Events is the number of events executed.
	Events uint64
	// End is the virtual time at which the run stopped.
	End Time
	// Spawned is the total number of processes ever spawned.
	Spawned int
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewKernel. A Kernel is not safe for concurrent use
// from multiple OS-level goroutines other than through the Process
// primitives it hands out.
type Kernel struct {
	now    Time
	seq    uint64
	queue  eventHeap
	events uint64

	procs   []*Process
	killed  chan struct{}
	stopped bool
	wg      sync.WaitGroup

	// horizon, when nonzero, bounds Run: events past it stay queued.
	horizon Time
}

// NewKernel returns a kernel with an empty event queue at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{killed: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) }

// Schedule arranges for fn to run in kernel context at now+delay. A negative
// delay is treated as zero. Schedule must be called from kernel context or
// from a running process (never from outside a Run).
func (k *Kernel) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	k.queue.push(event{at: k.now + delay, seq: k.seq, fn: fn})
}

// scheduleDelivery is Mailbox.Send's closure-free fast path: the delivery is
// encoded in the event itself.
func (k *Kernel) scheduleDelivery(delay Time, mb *Mailbox, msg any) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	k.queue.push(event{at: k.now + delay, seq: k.seq, mb: mb, msg: msg})
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times in
// the past run at the current time.
func (k *Kernel) ScheduleAt(at Time, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.Schedule(at-k.now, fn)
}

// Run executes events until the queue is empty (quiescence) or, inside
// RunUntil, until the next event would exceed its horizon.
// Processes blocked on mailboxes at quiescence are considered idle servers,
// not errors. Run may be called repeatedly; each call resumes from the
// current state.
func (k *Kernel) Run() (Stats, error) {
	if k.stopped {
		return Stats{}, ErrStopped
	}
	for len(k.queue) > 0 {
		if k.horizon > 0 && k.queue[0].at > k.horizon {
			break
		}
		ev := k.queue.pop()
		if ev.at > k.now {
			k.now = ev.at
		}
		k.events++
		ev.run()
	}
	return Stats{Events: k.events, End: k.now, Spawned: len(k.procs)}, nil
}

// RunUntil executes events with timestamps not exceeding t and then stops,
// leaving later events queued. The clock is advanced to t even if the queue
// drains earlier, so repeated RunUntil calls step the simulation forward.
func (k *Kernel) RunUntil(t Time) (Stats, error) {
	prev := k.horizon
	k.horizon = t
	st, err := k.Run()
	k.horizon = prev
	if err == nil && k.now < t {
		k.now = t
		st.End = t
	}
	return st, err
}

// Shutdown terminates every process that is still blocked (in Hold or Recv)
// and waits for all process goroutines to exit. It must be called once the
// caller is done with the kernel; afterwards the kernel is unusable.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	close(k.killed)
	k.wg.Wait()
}

// killPanic is the sentinel used to unwind process goroutines on Shutdown.
type killPanic struct{}

// Process is a simulated process. Its body runs on a dedicated goroutine
// but only ever executes while the kernel has handed it control, so process
// code may freely touch shared simulation state without locking.
type Process struct {
	k      *Kernel
	name   string
	id     int
	resume chan struct{}
	yield  chan struct{}
	done   bool
}

// Spawn creates a process named name executing body and schedules it to
// start at the current virtual time (after already-queued simultaneous
// events). It returns immediately.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{
		k:      k,
		name:   name,
		id:     len(k.procs),
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killPanic); ok {
					return // kernel shutdown: exit quietly without yielding
				}
				panic(r)
			}
		}()
		p.waitResume()
		body(p)
		p.done = true
		p.yield <- struct{}{}
	}()
	k.Schedule(0, func() { k.step(p) })
	return p
}

// step hands control to p and blocks until p yields back (by holding,
// blocking on a mailbox, or terminating).
func (k *Kernel) step(p *Process) {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// waitResume parks the goroutine until the kernel resumes it, or unwinds it
// if the kernel is shut down.
func (p *Process) waitResume() {
	select {
	case <-p.resume:
	case <-p.k.killed:
		panic(killPanic{})
	}
}

// yieldToKernel returns control to the kernel loop.
func (p *Process) yieldToKernel() {
	select {
	case p.yield <- struct{}{}:
	case <-p.k.killed:
		panic(killPanic{})
	}
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// ID returns the process's spawn index, unique within its kernel.
func (p *Process) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.k.now }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Hold suspends the process for d of virtual time. Other events and
// processes run in the meantime; this is the primitive that models time
// spent computing (the paper's Tc) or transmitting.
func (p *Process) Hold(d Time) {
	p.k.Schedule(d, func() { p.k.step(p) })
	p.yieldToKernel()
	p.waitResume()
}

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("proc(%d,%s)", p.id, p.name)
}

package sim

import "time"

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
}

// Kernel is a discrete-event simulation kernel. Construct it with
// NewKernel. A Kernel is not safe for concurrent use: events run on the
// goroutine that calls Run.
type Kernel struct {
	now    Time
	seq    uint64
	queue  eventHeap
	events uint64

	// horizon, when nonzero, bounds Run: events past it stay queued.
	horizon Time
}

// NewKernel returns a kernel with an empty event queue at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) }

// Schedule arranges for fn to run in kernel context at now+delay. A negative
// delay is treated as zero. It may be called from an event, or between runs
// to seed the queue (delay then counts from the current virtual time).
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
// RunUntil, until the next event would exceed its horizon. Run may be called
// repeatedly; each call resumes from the current state.
func (k *Kernel) Run() Stats {
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
	return Stats{Events: k.events, End: k.now}
}

// RunUntil executes events with timestamps not exceeding t and then stops,
// leaving later events queued. The clock is advanced to t even if the queue
// drains earlier, so repeated RunUntil calls step the simulation forward.
func (k *Kernel) RunUntil(t Time) Stats {
	prev := k.horizon
	k.horizon = t
	st := k.Run()
	k.horizon = prev
	if k.now < t {
		k.now = t
		st.End = t
	}
	return st
}

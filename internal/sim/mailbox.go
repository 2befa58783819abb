package sim

// Mailbox is an unbounded, FIFO message queue. Sends are timestamped
// deliveries scheduled on the kernel; after each delivery the kernel calls
// the receiver registered with OnDeliver, which takes messages with TryRecv
// or Drain. Because the kernel runs one event at a time, no locking is
// needed.
type Mailbox struct {
	k         *Kernel
	queue     []any
	onDeliver func()
}

// NewMailbox returns an empty mailbox attached to kernel k.
func NewMailbox(k *Kernel) *Mailbox {
	return &Mailbox{k: k}
}

// OnDeliver registers fn to run in kernel context after every delivery,
// replacing any earlier receiver. A receiver that is not ready returns at
// once and leaves its messages queued for a later call.
func (m *Mailbox) OnDeliver(fn func()) { m.onDeliver = fn }

// Send schedules msg to arrive after delay of virtual time. A zero delay
// delivers at the current time, after already-queued simultaneous events.
func (m *Mailbox) Send(msg any, delay Time) {
	m.k.scheduleDelivery(delay, m, msg)
}

// deliver enqueues msg and calls the receiver, if any.
func (m *Mailbox) deliver(msg any) {
	m.queue = append(m.queue, msg)
	if m.onDeliver != nil {
		m.onDeliver()
	}
}

// TryRecv removes and returns the oldest message if one is queued; ok
// reports whether a message was returned.
func (m *Mailbox) TryRecv() (msg any, ok bool) {
	if len(m.queue) == 0 {
		return nil, false
	}
	msg = m.queue[0]
	m.queue[0] = nil
	m.queue = m.queue[1:]
	if len(m.queue) == 0 {
		m.queue = nil // release the backing array once drained
	}
	return msg, true
}

// Drain removes and returns all currently queued messages.
func (m *Mailbox) Drain() []any {
	out := m.queue
	m.queue = nil
	return out
}

// Snapshot returns a copy of the queued messages without removing them.
func (m *Mailbox) Snapshot() []any {
	out := make([]any, len(m.queue))
	copy(out, m.queue)
	return out
}

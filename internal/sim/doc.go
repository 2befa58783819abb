// Package sim implements a deterministic discrete-event simulation kernel.
//
// A simulation consists of a Kernel owning a virtual clock and an event
// queue. An event is a function the kernel calls at its virtual time, or a
// delivery into a Mailbox. Events scheduled for the same virtual time run in
// scheduling order (a monotone sequence number breaks ties), so a simulation
// with a fixed seed is fully reproducible. Everything runs on the caller's
// goroutine inside Run; the kernel starts none of its own.
//
// A Mailbox is an unbounded FIFO queue whose sends are timed deliveries. Its
// receiver registers with OnDeliver and is called after every delivery; it
// takes what it is ready for with TryRecv or Drain and leaves the rest
// queued. A receiver busy for some virtual time (the paper's Tc, the time a
// switch's entity spends computing a topology) schedules the end of that
// work with Schedule, and takes what queued meanwhile when it ends — the
// event-callback form of the CSIM study's hold(t) on a mailbox server.
package sim

package sim_test

import (
	"fmt"

	"dgmc/internal/sim"
)

// Example shows the kernel's primitives: a producer that schedules its next
// step 10µs of virtual time on, and a consumer that takes each message from
// its mailbox when the kernel delivers it, in deterministic order.
func Example() {
	k := sim.NewKernel()

	inbox := sim.NewMailbox(k)
	inbox.OnDeliver(func() {
		for v, ok := inbox.TryRecv(); ok; v, ok = inbox.TryRecv() {
			fmt.Printf("t=%v received %v\n", k.Now(), v)
		}
	})
	var produce func(i int)
	produce = func(i int) {
		inbox.Send(i, 5*sim.Microsecond) // 5µs transmission delay
		if i < 3 {
			k.Schedule(10*sim.Microsecond, func() { produce(i + 1) })
		}
	}
	k.Schedule(10*sim.Microsecond, func() { produce(1) })

	k.Run()
	// Output:
	// t=15µs received 1
	// t=25µs received 2
	// t=35µs received 3
}

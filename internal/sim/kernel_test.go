package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()

	var got []int
	k.Schedule(30*Microsecond, func() { got = append(got, 3) })
	k.Schedule(10*Microsecond, func() { got = append(got, 1) })
	k.Schedule(20*Microsecond, func() { got = append(got, 2) })

	st := k.Run()
	if st.Events != 3 {
		t.Errorf("events = %d, want 3", st.Events)
	}
	if st.End != 30*Microsecond {
		t.Errorf("end = %v, want 30µs", st.End)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	k := NewKernel()

	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()

	var fired []Time
	k.Schedule(10, func() {
		fired = append(fired, k.Now())
		k.Schedule(5, func() { fired = append(fired, k.Now()) })
	})
	k.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()

	ran := false
	k.Schedule(-5, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if k.Now() != 0 {
		t.Fatalf("now = %v, want 0", k.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	k := NewKernel()

	var at Time
	k.ScheduleAt(42, func() { at = k.Now() })
	k.Run()
	if at != 42 {
		t.Fatalf("ran at %v, want 42", at)
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	k := NewKernel()

	var got []int
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(100, func() { got = append(got, 2) })

	k.RunUntil(50)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after RunUntil(50) got %v, want [1]", got)
	}
	if k.Now() != 50 {
		t.Fatalf("now = %v, want 50", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if len(got) != 2 {
		t.Fatalf("after Run got %v, want both events", got)
	}
}

package faults

import (
	"strings"
	"testing"
	"time"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"drop above one", Plan{Default: LinkFaults{Drop: 1.5}}},
		{"negative drop", Plan{Default: LinkFaults{Drop: -0.1}}},
		{"dup above one", Plan{Default: LinkFaults{Dup: 2}}},
		{"negative jitter", Plan{Default: LinkFaults{Jitter: -time.Microsecond}}},
		{"inverted flap window", Plan{Flaps: []Flap{{A: 0, B: 1, DownAt: 10, UpAt: 5}}}},
		{"empty flap window", Plan{Flaps: []Flap{{A: 0, B: 1, DownAt: 10, UpAt: 10}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.plan)
		}
	}
	var bad Plan
	bad.SetLink(2, 3, LinkFaults{Drop: 7})
	if err := bad.Validate(); err == nil {
		t.Error("per-link override with bad drop accepted")
	}
	good := Plan{Default: LinkFaults{Drop: 0.5, Dup: 0.1, Jitter: time.Microsecond},
		Flaps: []Flap{{A: 0, B: 1, DownAt: 0, UpAt: 5}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Default: LinkFaults{Drop: 0.3, Dup: 0.2, Jitter: 10 * time.Microsecond}}
	draw := func() []Outcome {
		k := sim.NewKernel()
		in, err := New(k, plan)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Outcome, 0, 100)
		for i := 0; i < 100; i++ {
			out = append(out, in.Apply(topo.SwitchID(i%5), topo.SwitchID((i+1)%5)))
		}
		if in.Applied() != 100 {
			t.Fatalf("Applied = %d, want 100", in.Applied())
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	var drops, dups, jitters int
	for _, o := range a {
		if o.Drop {
			drops++
		}
		if o.Duplicate {
			dups++
		}
		if o.Jitter > 0 {
			jitters++
		}
		if o.Flapped {
			t.Error("flap reported by a plan without flaps")
		}
		if o.Jitter > 10*time.Microsecond || o.DupJitter > 10*time.Microsecond {
			t.Errorf("jitter above bound: %+v", o)
		}
	}
	if drops == 0 || dups == 0 || jitters == 0 {
		t.Errorf("fault mix unexercised: drops=%d dups=%d jitters=%d", drops, dups, jitters)
	}
}

func TestFlapWindow(t *testing.T) {
	plan := Plan{Flaps: []Flap{{A: 1, B: 2, DownAt: sim.Time(10 * time.Microsecond), UpAt: sim.Time(20 * time.Microsecond)}}}
	k := sim.NewKernel()
	in, err := New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at      sim.Time
		a, b    topo.SwitchID
		flapped bool
	}
	probes := []probe{
		{at: sim.Time(5 * time.Microsecond), a: 1, b: 2, flapped: false},  // before the window
		{at: sim.Time(10 * time.Microsecond), a: 1, b: 2, flapped: true},  // window start is inclusive
		{at: sim.Time(15 * time.Microsecond), a: 2, b: 1, flapped: true},  // direction ignored
		{at: sim.Time(15 * time.Microsecond), a: 0, b: 1, flapped: false}, // other links unaffected
		{at: sim.Time(20 * time.Microsecond), a: 1, b: 2, flapped: false}, // window end is exclusive
	}
	for _, pr := range probes {
		k.ScheduleAt(pr.at, func() {
			o := in.Apply(pr.a, pr.b)
			if o.Flapped != pr.flapped || o.Drop != pr.flapped {
				t.Errorf("t=%v link(%d,%d): outcome %+v, want flapped=%v", pr.at, pr.a, pr.b, o, pr.flapped)
			}
		})
	}
	k.Run()
}

func TestPerLinkOverrideAndDescribe(t *testing.T) {
	plan := Plan{Seed: 7, Default: LinkFaults{Drop: 0.1}}
	plan.SetLink(3, 1, LinkFaults{Drop: 0.9, Jitter: time.Microsecond})
	if lf := plan.Link(1, 3); lf.Drop != 0.9 {
		t.Errorf("override not canonicalized across direction: %+v", lf)
	}
	if lf := plan.Link(0, 1); lf.Drop != 0.1 {
		t.Errorf("default not applied: %+v", lf)
	}
	desc := plan.Describe()
	for _, want := range []string{"seed 7", "drop=0.100", "link(1,3)", "drop=0.900"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe() = %q, missing %q", desc, want)
		}
	}
}

func TestPartitionCrossesAndValidate(t *testing.T) {
	p := Partition{Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}, At: 5, HealAt: 10}
	cases := []struct {
		a, b    topo.SwitchID
		crosses bool
	}{
		{0, 2, true},
		{2, 0, true}, // direction ignored
		{0, 1, false},
		{2, 3, false},
		{0, 7, false}, // unlisted switch unconstrained
		{7, 8, false},
	}
	for _, c := range cases {
		if got := p.Crosses(c.a, c.b); got != c.crosses {
			t.Errorf("Crosses(%d,%d) = %v, want %v", c.a, c.b, got, c.crosses)
		}
	}

	bad := []Partition{
		{Groups: [][]topo.SwitchID{{0, 1}}, At: 0, HealAt: 5},         // one group
		{Groups: [][]topo.SwitchID{{0}, {}}, At: 0, HealAt: 5},        // empty group
		{Groups: [][]topo.SwitchID{{0, 1}, {1, 2}}, At: 0, HealAt: 5}, // overlap
		{Groups: [][]topo.SwitchID{{0}, {1}}, At: 10, HealAt: 5},      // heal before split
		{Groups: [][]topo.SwitchID{{0}, {1}}, At: -1, HealAt: 5},      // negative start
	}
	for i, pt := range bad {
		if err := (&Plan{Partitions: []Partition{pt}}).Validate(); err == nil {
			t.Errorf("bad partition %d accepted: %+v", i, pt)
		}
	}
	never := Partition{Groups: [][]topo.SwitchID{{0}, {1}}, At: 3} // HealAt 0: never heals
	if err := (&Plan{Partitions: []Partition{never}}).Validate(); err != nil {
		t.Errorf("never-healing partition rejected: %v", err)
	}
	if s := p.String(); !strings.Contains(s, "partition(0,1|2,3)") {
		t.Errorf("String() = %q", s)
	}
}

func TestPartitionWindowInjector(t *testing.T) {
	plan := Plan{Partitions: []Partition{{
		Groups: [][]topo.SwitchID{{0, 1}, {2, 3}},
		At:     sim.Time(10 * time.Microsecond),
		HealAt: sim.Time(20 * time.Microsecond),
	}}}
	k := sim.NewKernel()
	in, err := New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at          sim.Time
		a, b        topo.SwitchID
		partitioned bool
	}
	probes := []probe{
		{at: sim.Time(5 * time.Microsecond), a: 0, b: 2, partitioned: false},  // before the split
		{at: sim.Time(10 * time.Microsecond), a: 0, b: 2, partitioned: true},  // split start inclusive
		{at: sim.Time(12 * time.Microsecond), a: 1, b: 3, partitioned: true},  // whole link set, atomically
		{at: sim.Time(12 * time.Microsecond), a: 3, b: 0, partitioned: true},  // both directions
		{at: sim.Time(14 * time.Microsecond), a: 0, b: 1, partitioned: false}, // intra-group unaffected
		{at: sim.Time(20 * time.Microsecond), a: 0, b: 2, partitioned: false}, // heal is exclusive
	}
	for _, pr := range probes {
		k.ScheduleAt(pr.at, func() {
			o := in.Apply(pr.a, pr.b)
			if o.Partitioned != pr.partitioned || o.Drop != pr.partitioned {
				t.Errorf("t=%v link(%d,%d): outcome %+v, want partitioned=%v", pr.at, pr.a, pr.b, o, pr.partitioned)
			}
		})
	}
	k.Run()
}

func TestPeriodicFlaps(t *testing.T) {
	flaps := PeriodicFlaps(1, 2, sim.Time(100), sim.Time(50), 0.4, 3)
	if len(flaps) != 3 {
		t.Fatalf("got %d flaps, want 3", len(flaps))
	}
	for i, f := range flaps {
		wantDown := sim.Time(100 + 50*i)
		if f.DownAt != wantDown || f.UpAt != wantDown+20 {
			t.Errorf("cycle %d: window %v..%v, want %v..%v", i, f.DownAt, f.UpAt, wantDown, wantDown+20)
		}
		if f.A != 1 || f.B != 2 {
			t.Errorf("cycle %d: link (%d,%d), want (1,2)", i, f.A, f.B)
		}
	}
	// Expanded windows must validate as a plan.
	if err := (&Plan{Flaps: flaps}).Validate(); err != nil {
		t.Errorf("expanded flaps rejected: %v", err)
	}
	// A tiny duty still yields a non-empty down window.
	tiny := PeriodicFlaps(0, 1, 0, sim.Time(10), 0.01, 1)
	if len(tiny) != 1 || tiny[0].UpAt <= tiny[0].DownAt {
		t.Errorf("tiny duty produced empty window: %+v", tiny)
	}
	for _, invalid := range [][]Flap{
		PeriodicFlaps(0, 1, 0, 0, 0.5, 3),            // no period
		PeriodicFlaps(0, 1, 0, sim.Time(10), 0, 3),   // zero duty
		PeriodicFlaps(0, 1, 0, sim.Time(10), 1.0, 3), // permanent outage
		PeriodicFlaps(0, 1, 0, sim.Time(10), 0.5, 0), // no cycles
	} {
		if invalid != nil {
			t.Errorf("invalid parameters produced flaps: %+v", invalid)
		}
	}
}

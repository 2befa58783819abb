// Package faults provides deterministic fault injection for the simulated
// network fabric: per-link message loss, duplication, extra delay jitter,
// and scheduled transient link flaps. A Plan describes what can go wrong;
// an Injector, bound to a simulation kernel, turns the plan into concrete
// per-transmission outcomes drawn from a seeded RNG, so every faulty run is
// exactly reproducible from (plan, seed).
//
// Faults act at the transport level: a flapped link stays up in the
// topology (no link-state event is generated), it just silently eats every
// message during its outage window — the hardest case for a flooding
// protocol, since nothing tells the routing layer to route around it. The
// reliable flooding mode (flood.Reliable) plus the resync machinery in
// internal/core exist to mask exactly these faults.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// LinkFaults describes the fault behaviour of one link (or the plan-wide
// default): each transmission over the link is independently dropped with
// probability Drop, duplicated with probability Dup, and delayed by an
// extra uniform amount in [0, Jitter].
type LinkFaults struct {
	Drop   float64
	Dup    float64
	Jitter time.Duration
}

// clean reports whether the faults are all zero (a perfect link).
func (lf LinkFaults) clean() bool { return lf.Drop == 0 && lf.Dup == 0 && lf.Jitter == 0 }

func (lf LinkFaults) validate() error {
	if lf.Drop < 0 || lf.Drop > 1 {
		return fmt.Errorf("faults: drop probability %v outside [0,1]", lf.Drop)
	}
	if lf.Dup < 0 || lf.Dup > 1 {
		return fmt.Errorf("faults: duplication probability %v outside [0,1]", lf.Dup)
	}
	if lf.Jitter < 0 {
		return fmt.Errorf("faults: negative jitter %v", lf.Jitter)
	}
	return nil
}

func (lf LinkFaults) String() string {
	return fmt.Sprintf("drop=%.3f dup=%.3f jitter=%v", lf.Drop, lf.Dup, lf.Jitter)
}

// Flap is a scheduled transient outage of the link (A,B): every
// transmission in either direction during [DownAt, UpAt) is dropped. The
// topology is not informed — the flap models an undetected outage.
type Flap struct {
	A, B   topo.SwitchID
	DownAt sim.Time
	UpAt   sim.Time
}

func (f Flap) String() string {
	return fmt.Sprintf("flap(%d,%d) down %v..%v", f.A, f.B, f.DownAt, f.UpAt)
}

// PeriodicFlaps expands a periodically flapping link into explicit Flap
// windows: starting at start, the link (a,b) repeats a cycle of length
// period, down for the first duty fraction of each cycle and up for the
// rest, for cycles cycles. duty must be in (0,1) — a mobility pattern, not
// a permanent failure.
func PeriodicFlaps(a, b topo.SwitchID, start, period sim.Time, duty float64, cycles int) []Flap {
	if period <= 0 || duty <= 0 || duty >= 1 || cycles <= 0 {
		return nil
	}
	out := make([]Flap, 0, cycles)
	down := sim.Time(float64(period) * duty)
	if down < 1 {
		down = 1
	}
	for i := 0; i < cycles; i++ {
		at := start + sim.Time(i)*period
		out = append(out, Flap{A: a, B: b, DownAt: at, UpAt: at + down})
	}
	return out
}

// Partition cuts the network into groups for a window of virtual time:
// every transmission between switches in *different* groups during
// [At, HealAt) is dropped, atomically for the whole link set — both
// directions, all crossing links, from the same instant. Switches not
// listed in any group are unconstrained. Like a Flap, a Partition acts at
// the transport level: the topology is not informed, modelling an
// undetected split (the hardest case — no link-state event tells either
// side to stop expecting the other). A zero HealAt means the partition
// never heals within the run.
//
// The transport cut is only half of a partition scenario: on heal, the
// protocol must reconcile the sides' diverged vector stamps. See
// core.Domain.SchedulePartitionHeal, which pairs with this primitive.
type Partition struct {
	Groups [][]topo.SwitchID
	At     sim.Time
	HealAt sim.Time
}

// Crosses reports whether (a,b) connects two different groups of p.
func (p Partition) Crosses(a, b topo.SwitchID) bool {
	ga, gb := -1, -1
	for i, g := range p.Groups {
		for _, s := range g {
			if s == a {
				ga = i
			}
			if s == b {
				gb = i
			}
		}
	}
	return ga >= 0 && gb >= 0 && ga != gb
}

func (p Partition) validate() error {
	if len(p.Groups) < 2 {
		return fmt.Errorf("faults: partition needs at least 2 groups, got %d", len(p.Groups))
	}
	seen := map[topo.SwitchID]bool{}
	for _, g := range p.Groups {
		if len(g) == 0 {
			return fmt.Errorf("faults: partition has an empty group")
		}
		for _, s := range g {
			if seen[s] {
				return fmt.Errorf("faults: switch %d in two partition groups", s)
			}
			seen[s] = true
		}
	}
	if p.At < 0 || (p.HealAt != 0 && p.HealAt <= p.At) {
		return fmt.Errorf("faults: bad partition window %v..%v", p.At, p.HealAt)
	}
	return nil
}

func (p Partition) String() string {
	var b strings.Builder
	b.WriteString("partition(")
	for i, g := range p.Groups {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, s := range g {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
	}
	if p.HealAt == 0 {
		fmt.Fprintf(&b, ") from %v", p.At)
	} else {
		fmt.Fprintf(&b, ") %v..%v", p.At, p.HealAt)
	}
	return b.String()
}

func linkKey(a, b topo.SwitchID) [2]topo.SwitchID {
	if a > b {
		a, b = b, a
	}
	return [2]topo.SwitchID{a, b}
}

// Plan is a complete, declarative fault scenario. The zero Plan is a
// perfect network.
type Plan struct {
	// Seed drives every random draw the injector makes.
	Seed int64
	// Default applies to every link without a per-link override.
	Default LinkFaults
	// Flaps lists scheduled transient outages.
	Flaps []Flap
	// Partitions lists scheduled whole-network splits.
	Partitions []Partition

	links map[[2]topo.SwitchID]LinkFaults
}

// SetLink overrides the fault behaviour of the link (a,b); direction is
// ignored.
func (p *Plan) SetLink(a, b topo.SwitchID, lf LinkFaults) {
	if p.links == nil {
		p.links = make(map[[2]topo.SwitchID]LinkFaults)
	}
	p.links[linkKey(a, b)] = lf
}

// Link returns the fault behaviour in effect for link (a,b).
func (p *Plan) Link(a, b topo.SwitchID) LinkFaults {
	if lf, ok := p.links[linkKey(a, b)]; ok {
		return lf
	}
	return p.Default
}

// Validate checks that probabilities are in [0,1], jitters are non-negative,
// and flap windows are well-ordered.
func (p *Plan) Validate() error {
	if err := p.Default.validate(); err != nil {
		return err
	}
	for k, lf := range p.links {
		if err := lf.validate(); err != nil {
			return fmt.Errorf("link (%d,%d): %w", k[0], k[1], err)
		}
	}
	for _, f := range p.Flaps {
		if f.DownAt < 0 || f.UpAt <= f.DownAt {
			return fmt.Errorf("faults: bad flap window %v", f)
		}
	}
	for _, pt := range p.Partitions {
		if err := pt.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Describe renders the plan for traces and experiment logs.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan (seed %d): default %s", p.Seed, p.Default)
	keys := make([][2]topo.SwitchID, 0, len(p.links))
	for k := range p.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "; link(%d,%d) %s", k[0], k[1], p.links[k])
	}
	for _, f := range p.Flaps {
		fmt.Fprintf(&b, "; %s", f)
	}
	for _, pt := range p.Partitions {
		fmt.Fprintf(&b, "; %s", pt)
	}
	return b.String()
}

// Outcome is the injector's verdict for one transmission.
type Outcome struct {
	// Drop means the transmission is lost.
	Drop bool
	// Flapped means the loss was caused by a flap window, not random loss.
	Flapped bool
	// Partitioned means the loss was caused by an active partition.
	Partitioned bool
	// Duplicate means a second, independent copy is also delivered.
	Duplicate bool
	// Jitter is the extra delay added to the (primary) delivery.
	Jitter time.Duration
	// DupJitter is the extra delay added to the duplicate delivery.
	DupJitter time.Duration
}

// Injector applies a Plan to individual transmissions. It must only be used
// from kernel context (inside simulation events); the kernel's
// deterministic scheduling then makes the draw sequence — and hence the
// whole faulty run — reproducible.
type Injector struct {
	k    *sim.Kernel
	plan Plan
	rng  *rand.Rand

	applied uint64
}

// New binds plan to kernel k after validating it.
func New(k *sim.Kernel, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{k: k, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() *Plan { return &in.plan }

// Applied returns how many transmissions have been subjected to the plan.
func (in *Injector) Applied() uint64 { return in.applied }

// Apply decides the fate of one transmission over link (a,b) at the current
// virtual time.
func (in *Injector) Apply(a, b topo.SwitchID) Outcome {
	in.applied++
	now := in.k.Now()
	for _, pt := range in.plan.Partitions {
		if now >= pt.At && (pt.HealAt == 0 || now < pt.HealAt) && pt.Crosses(a, b) {
			return Outcome{Drop: true, Partitioned: true}
		}
	}
	for _, f := range in.plan.Flaps {
		if linkKey(f.A, f.B) == linkKey(a, b) && now >= f.DownAt && now < f.UpAt {
			return Outcome{Drop: true, Flapped: true}
		}
	}
	lf := in.plan.Link(a, b)
	if lf.clean() {
		return Outcome{}
	}
	var o Outcome
	if lf.Drop > 0 && in.rng.Float64() < lf.Drop {
		o.Drop = true
	}
	if lf.Dup > 0 && in.rng.Float64() < lf.Dup {
		o.Duplicate = true
	}
	if lf.Jitter > 0 {
		o.Jitter = time.Duration(in.rng.Int63n(int64(lf.Jitter) + 1))
		if o.Duplicate {
			o.DupJitter = time.Duration(in.rng.Int63n(int64(lf.Jitter) + 1))
		}
	}
	return o
}

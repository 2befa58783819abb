package exp

import (
	"fmt"
	"math/rand"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/hier"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/metrics"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// HierarchyParams configures the hierarchical-extension experiment.
type HierarchyParams struct {
	// AreaCounts lists how many areas to sweep (network size scales with
	// it). Defaults to {2, 4, 6, 8}.
	AreaCounts []int
	// AreaSize is the number of switches per area. Defaults to 12.
	AreaSize int
	// RunsPerPoint defaults to 10.
	RunsPerPoint int
	// EventsPerArea membership events injected in each area. Defaults 3.
	EventsPerArea int
	// BaseSeed drives the sweep.
	BaseSeed int64
	// PerHop and Tc are the usual timing parameters.
	PerHop, Tc time.Duration
}

func (p HierarchyParams) normalized() HierarchyParams {
	if len(p.AreaCounts) == 0 {
		p.AreaCounts = []int{2, 4, 6, 8}
	}
	if p.AreaSize == 0 {
		p.AreaSize = 12
	}
	if p.RunsPerPoint == 0 {
		p.RunsPerPoint = 10
	}
	if p.EventsPerArea == 0 {
		p.EventsPerArea = 3
	}
	if p.PerHop == 0 {
		p.PerHop = 10 * time.Microsecond
	}
	if p.Tc == 0 {
		p.Tc = 500 * time.Microsecond
	}
	return p
}

// buildHierNetwork constructs a k-area network: each area is a seeded
// random connected subgraph of AreaSize switches hanging off a gateway;
// gateways form a backbone ring.
func buildHierNetwork(p HierarchyParams, areaCount int, seed int64) (*topo.Graph, []hier.AreaSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	n := areaCount * p.AreaSize
	g := topo.New(n)
	var specs []hier.AreaSpec
	for a := 0; a < areaCount; a++ {
		base := topo.SwitchID(a * p.AreaSize)
		ids := make([]topo.SwitchID, p.AreaSize)
		for i := range ids {
			ids[i] = base + topo.SwitchID(i)
		}
		// Random spanning tree inside the area plus ~25% extra chords.
		for i := 1; i < p.AreaSize; i++ {
			to := topo.SwitchID(rng.Intn(i))
			d := time.Duration(5+rng.Intn(11)) * time.Microsecond
			if err := g.AddLink(base+topo.SwitchID(i), base+to, d, 1); err != nil {
				return nil, nil, err
			}
		}
		for extra := 0; extra < p.AreaSize/4; extra++ {
			x := topo.SwitchID(rng.Intn(p.AreaSize))
			y := topo.SwitchID(rng.Intn(p.AreaSize))
			if x == y {
				continue
			}
			if _, dup := g.Link(base+x, base+y); dup {
				continue
			}
			d := time.Duration(5+rng.Intn(11)) * time.Microsecond
			if err := g.AddLink(base+x, base+y, d, 1); err != nil {
				return nil, nil, err
			}
		}
		specs = append(specs, hier.AreaSpec{Switches: ids, Gateway: base})
	}
	for a := 0; a < areaCount; a++ {
		from := specs[a].Gateway
		to := specs[(a+1)%areaCount].Gateway
		if _, dup := g.Link(from, to); dup {
			continue
		}
		if err := g.AddLink(from, to, 50*time.Microsecond, 1); err != nil {
			return nil, nil, err
		}
	}
	return g, specs, nil
}

// hierEvents draws EventsPerArea joins per area (non-gateway switches),
// sparsely spaced.
func hierEvents(p HierarchyParams, areaCount int, seed int64) []struct {
	At sim.Time
	S  topo.SwitchID
} {
	rng := rand.New(rand.NewSource(seed ^ 0x0badcafe))
	var out []struct {
		At sim.Time
		S  topo.SwitchID
	}
	at := sim.Time(0)
	for a := 0; a < areaCount; a++ {
		base := a * p.AreaSize
		used := map[int]bool{}
		for e := 0; e < p.EventsPerArea; e++ {
			var local int
			for {
				local = 1 + rng.Intn(p.AreaSize-1) // skip the gateway at 0
				if !used[local] {
					break
				}
			}
			used[local] = true
			at += 5 * time.Millisecond
			out = append(out, struct {
				At sim.Time
				S  topo.SwitchID
			}{at, topo.SwitchID(base + local)})
		}
	}
	return out
}

// Hierarchy compares flat D-GMC against the two-level hierarchical
// extension over growing multi-area networks: flooding transmissions per
// event (the scalability claim §2 motivates the hierarchy with) and
// topology computations per event.
func Hierarchy(p HierarchyParams) (*metrics.Table, error) {
	p = p.normalized()
	table := &metrics.Table{
		Title:  "Hierarchical extension — flood copies and computations per event (flat vs 2-level)",
		XLabel: "switches",
		Columns: []string{
			"copies/event flat",
			"copies/event hier",
			"comp/event flat",
			"comp/event hier",
		},
	}
	type hierPoint struct {
		flatCopies, hierCopies, flatComp, hierComp float64
	}
	for _, areaCount := range p.AreaCounts {
		points, err := parallelMap(p.RunsPerPoint, func(run int) (hierPoint, error) {
			seed := p.BaseSeed*31337 + int64(areaCount)*101 + int64(run)
			g, specs, err := buildHierNetwork(p, areaCount, seed)
			if err != nil {
				return hierPoint{}, err
			}
			events := hierEvents(p, areaCount, seed)

			// Hierarchical run.
			k1 := sim.NewKernel()
			hd, err := hier.NewDomain(k1, hier.Config{
				Global: g, Areas: specs, PerHop: p.PerHop, Tc: p.Tc,
			})
			if err != nil {
				return hierPoint{}, err
			}
			for _, e := range events {
				if err := hd.Join(e.At, e.S, 1, mctree.SenderReceiver); err != nil {
					return hierPoint{}, err
				}
			}
			k1.Run()
			if err := hd.CheckConverged(); err != nil {
				return hierPoint{}, fmt.Errorf("hier areas=%d run=%d: %w", areaCount, run, err)
			}
			hs := hd.Stats()

			// Flat run.
			k2 := sim.NewKernel()
			net, err := flood.New(k2, g, p.PerHop, flood.Direct)
			if err != nil {
				return hierPoint{}, err
			}
			fd, err := core.NewDomain(k2, core.Config{Net: net, ComputeTime: p.Tc, Algorithm: route.SPH{}})
			if err != nil {
				return hierPoint{}, err
			}
			for _, e := range events {
				fd.Join(e.At, e.S, lsa.ConnID(1), mctree.SenderReceiver)
			}
			k2.Run()
			if err := fd.CheckConverged(); err != nil {
				return hierPoint{}, fmt.Errorf("flat areas=%d run=%d: %w", areaCount, run, err)
			}
			nEvents := float64(len(events))
			return hierPoint{
				flatCopies: float64(net.Copies()) / nEvents,
				hierCopies: float64(hs.Copies) / nEvents,
				flatComp:   float64(fd.Metrics().Computations) / nEvents,
				hierComp:   float64(hs.Computations) / nEvents,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var flatCopies, hierCopies, flatComp, hierComp metrics.Sample
		for _, pt := range points {
			flatCopies.Add(pt.flatCopies)
			hierCopies.Add(pt.hierCopies)
			flatComp.Add(pt.flatComp)
			hierComp.Add(pt.hierComp)
		}
		cells := make([]metrics.Summary, 0, 4)
		for _, s := range []*metrics.Sample{&flatCopies, &hierCopies, &flatComp, &hierComp} {
			sum, err := s.Summarize()
			if err != nil {
				return nil, err
			}
			cells = append(cells, sum)
		}
		if err := table.AddRow(float64(areaCount*p.AreaSize), cells...); err != nil {
			return nil, err
		}
	}
	return table, nil
}

package topo

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRelaxSSSPMatchesRerun: growing a source set one random batch at a
// time, RelaxSSSP leaves Dist and Pred exactly as a RunSSSP from Reset with
// the whole set does, on Waxman and uniform-delay graphs with links down,
// with and without a per-hop cost.
func TestRelaxSSSPMatchesRerun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		cfg := DefaultGenConfig(3+rng.Intn(40), int64(round))
		if round%2 == 1 {
			cfg.MinDelay = cfg.MaxDelay // every path length ties with others
		}
		g, err := Waxman(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumSwitches()
		for _, l := range g.Links() {
			if rng.Intn(8) == 0 {
				g.SetLinkDown(l.A, l.B, true)
			}
		}
		perHop := time.Duration(rng.Intn(2)) * time.Microsecond
		inc := new(SSSPScratch)
		inc.Reset(n)
		sources := []SwitchID{SwitchID(rng.Intn(n))}
		inc.Seed(sources[0])
		g.RunSSSP(inc, perHop)
		for step := 0; step < 6; step++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				s := SwitchID(rng.Intn(n))
				if !slices.Contains(sources, s) {
					sources = append(sources, s)
					inc.Seed(s)
				}
			}
			g.RelaxSSSP(inc, perHop)
			ref := new(SSSPScratch)
			ref.Reset(n)
			for _, s := range sources {
				ref.Seed(s)
			}
			g.RunSSSP(ref, perHop)
			if !slices.Equal(inc.Dist, ref.Dist) || !slices.Equal(inc.Pred, ref.Pred) {
				t.Fatalf("round %d step %d sources %v:\n  added dist %v pred %v\n  rerun dist %v pred %v",
					round, step, sources, inc.Dist, inc.Pred, ref.Dist, ref.Pred)
			}
		}
	}
}

package rt

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

func gridCluster(t *testing.T) *Cluster {
	t.Helper()
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// No ResyncTimeout: a resync timer firing into a no-op is completed work,
	// and the oracle below is that none completes after convergence.
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQuiescentNeverEarly holds the counting predicate to the oracle it
// replaced, the quiet window: bursts of concurrent joins and leaves from
// four goroutines, and each time WaitConverged returns, nothing may complete
// anywhere for the next 30 ms and agreement must still hold. A unit of work
// the predicate does not count — a received batch's LSA step after its
// frames settle, a frame between two queues — would complete inside that
// window.
func TestQuiescentNeverEarly(t *testing.T) {
	const rounds, drivers, window = 200, 4, 30 * time.Millisecond
	c := gridCluster(t)
	defer c.Close()
	n := c.graph.NumSwitches()
	member := make([][2]bool, n) // by switch, by connection; each driver owns n/drivers switches
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int, rng *rand.Rand) {
				defer wg.Done()
				for k := 1 + rng.Intn(4); k > 0; k-- {
					sw := topo.SwitchID(d + drivers*rng.Intn(n/drivers))
					ci := rng.Intn(2)
					conn := lsa.ConnID(1 + ci)
					var err error
					if member[sw][ci] {
						err = c.Leave(sw, conn)
					} else {
						err = c.Join(sw, conn, mctree.SenderReceiver)
					}
					if err != nil {
						t.Error(err)
						return
					}
					member[sw][ci] = !member[sw][ci]
				}
			}(d, rand.New(rand.NewSource(int64(round*drivers+d))))
		}
		wg.Wait()
		if err := c.WaitConverged(15 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		at, _ := c.quiescent()
		time.Sleep(window)
		if now, quiet := c.quiescent(); now != at || !quiet {
			t.Fatalf("round %d: WaitConverged returned with work pending: %d units completed in the %v after it, quiescent %v", round, now-at, window, quiet)
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatalf("round %d: agreement lost after WaitConverged returned: %v", round, err)
		}
	}
}

// TestInjectRacesClose has several goroutines join and leave at one switch
// while another closes it, halfway through the first one's calls: every
// call returns nil or ErrClosed, and none blocks.
func TestInjectRacesClose(t *testing.T) {
	const drivers, calls = 4, 200
	c := gridCluster(t)
	defer c.Close()
	n := c.Node(5)
	half := make(chan struct{})
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			conn := lsa.ConnID(1 + d)
			for i := 0; i < calls; i++ {
				if d == 0 && i == calls/2 {
					close(half)
				}
				err := n.Join(conn, mctree.SenderReceiver)
				if err == nil {
					err = n.Leave(conn)
				}
				if err != nil && err != ErrClosed {
					t.Errorf("conn %d call %d: %v", conn, i, err)
				}
			}
		}(d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-half
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := n.Join(1, mctree.SenderReceiver); err != ErrClosed {
		t.Fatalf("Join after Close = %v, want ErrClosed", err)
	}
}

// TestWaitConvergedFailsOnWedge holds WaitConverged to its timeout on a
// cluster that goes quiescent without agreeing: on a 2×2 grid, an
// asymmetric connection with receivers at switches 1 and 2 and no sender
// never converges (ROADMAP item 1), so the wait must fail with the stamps
// that diverge — not poll forever because nothing is pending. When the
// protocol learns to settle such a connection (item 1(c)), the expectation
// flips to success.
func TestWaitConvergedFailsOnWedge(t *testing.T) {
	const timeout = 500 * time.Millisecond
	g, err := topo.Grid(2, 2, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g,
		Kinds: map[lsa.ConnID]mctree.Kind{3: mctree.Asymmetric},
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sw := range []topo.SwitchID{1, 2} {
		if err := c.Join(sw, 3, mctree.Receiver); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- c.WaitConverged(timeout) }()
	select {
	case err := <-done:
		took := time.Since(start)
		if err == nil {
			t.Fatal("WaitConverged succeeded on a connection with no sender")
		}
		if !strings.Contains(err.Error(), "stamps diverge") {
			t.Errorf("error %q does not name the diverging stamps", err)
		}
		if took > timeout+time.Second {
			t.Errorf("WaitConverged(%v) returned after %v", timeout, took)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("WaitConverged(%v) still polling after 10 s on a quiescent, disagreeing cluster", timeout)
	}
}

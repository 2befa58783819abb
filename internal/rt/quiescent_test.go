package rt

import (
	"math/rand"
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
// the predicate does not count — an event between the channel and its step,
// an inbox batch between the queue and its step, a frame between two queues
// — would complete inside that window.
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

// TestDequeuedEventIsPending parks the event loop where the old idle() could
// not see it — the event is off the channel, step has not raised busy — and
// checks that the node, and so the cluster, counts as busy there.
func TestDequeuedEventIsPending(t *testing.T) {
	c := gridCluster(t)
	defer c.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	testHookEventDequeued = func(n *Node) {
		if n.ID() == 5 {
			entered <- struct{}{}
			<-release
		}
	}
	defer func() { testHookEventDequeued = nil }()
	if err := c.Join(5, 1, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	<-entered
	n := c.Node(5)
	if len(n.events) != 0 || n.busy.Load() != 0 {
		t.Fatalf("event loop is not between dequeue and step: %d queued, busy %d", len(n.events), n.busy.Load())
	}
	if n.idle() {
		t.Error("node reads idle with a dequeued event not yet stepped")
	}
	if _, ok := c.quiescent(); ok {
		t.Error("cluster reads quiescent with a dequeued event not yet stepped")
	}
	if err := c.Settle(0, 5*time.Millisecond); err == nil {
		t.Error("Settle returned with a dequeued event not yet stepped")
	}
	close(release)
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if snap, ok := n.Connection(1); !ok || len(snap.Members) != 1 {
		t.Fatalf("join was not applied after release: %+v", snap)
	}
}

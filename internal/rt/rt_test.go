package rt

import (
	"testing"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

const (
	soakSwitches = 16
	soakEvents   = 220 // ≥200 join/leave events per the soak acceptance bar
	soakConn     = lsa.ConnID(1)
)

func soakGraph(t *testing.T, n int) *topo.Graph {
	t.Helper()
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// replayMembers computes the member set a correct protocol must converge on
// after the scripted churn: the per-switch fold of its own joins/leaves.
func replayMembers(events []workload.Event) map[topo.SwitchID]bool {
	members := map[topo.SwitchID]bool{}
	for _, ev := range events {
		if ev.Join {
			members[ev.Switch] = true
		} else {
			delete(members, ev.Switch)
		}
	}
	return members
}

// runChurnSoak drives ≥200 churn events into a 16-switch cluster over the
// given fabric and verifies member-agreed convergence.
func runChurnSoak(t *testing.T, c *Cluster, pace time.Duration) {
	t.Helper()
	defer c.Close()
	events, err := workload.Churn(workload.Config{
		N: soakSwitches, Events: soakEvents, Seed: 7, MeanGap: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Join {
			err = c.Join(ev.Switch, soakConn, ev.Role)
		} else {
			err = c.Leave(ev.Switch, soakConn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	if err := c.WaitConverged(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := replayMembers(events)
	for _, n := range c.Nodes() {
		snap, ok := n.Connection(soakConn)
		if !ok {
			t.Fatalf("switch %d lost all state for conn %d", n.ID(), soakConn)
		}
		if len(snap.Members) != len(want) {
			t.Fatalf("switch %d has %d members, want %d", n.ID(), len(snap.Members), len(want))
		}
		for m := range want {
			if _, ok := snap.Members[m]; !ok {
				t.Fatalf("switch %d is missing member %d", n.ID(), m)
			}
		}
	}
	if len(want) >= 2 {
		snap, _ := c.Node(0).Connection(soakConn)
		if snap.Topology == nil {
			t.Fatal("no topology installed for the final membership")
		}
	}
}

func TestChurnSoakChanTransport(t *testing.T) {
	g := soakGraph(t, soakSwitches)
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(soakSwitches))
	if err != nil {
		t.Fatal(err)
	}
	runChurnSoak(t, c, 0)
}

func TestChurnSoakUDPTransport(t *testing.T) {
	g := soakGraph(t, soakSwitches)
	fab, err := NewUDPFabric(soakSwitches)
	if err != nil {
		t.Fatal(err)
	}
	// UDP can drop under burst pressure, so gap recovery is on — exactly
	// how a real deployment runs.
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: 100 * time.Millisecond,
	}, fab)
	if err != nil {
		t.Fatal(err)
	}
	runChurnSoak(t, c, 500*time.Microsecond)
}

func TestClusterBasicJoinLeave(t *testing.T) {
	g, err := topo.Grid(2, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Join and Leave return with the event applied at the switch that took
	// it: a member there, with its own entry of R advanced, and no wait.
	conn := lsa.ConnID(5)
	applied := func(sw topo.SwitchID, member bool, events uint32) {
		t.Helper()
		snap, ok := c.Node(sw).Connection(conn)
		if !ok {
			t.Fatalf("switch %d has no state for conn %d right after its event", sw, conn)
		}
		if _, in := snap.Members[sw]; in != member || snap.R[sw] != events {
			t.Fatalf("switch %d right after its event: member %v, R[self] %d; want %v, %d", sw, in, snap.R[sw], member, events)
		}
	}
	for _, sw := range []topo.SwitchID{0, 3, 5} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
		applied(sw, true, 1)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, ok := c.Node(2).Connection(conn)
	if !ok || len(snap.Members) != 3 {
		t.Fatalf("switch 2 sees %d members, want 3", len(snap.Members))
	}
	if snap.Topology == nil || snap.Topology.Validate(g, snap.Members) != nil {
		t.Fatalf("switch 2 has no valid installed topology: %v", snap.Topology)
	}

	if err := c.Leave(3, conn); err != nil {
		t.Fatal(err)
	}
	applied(3, false, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, _ = c.Node(4).Connection(conn)
	if len(snap.Members) != 2 {
		t.Fatalf("after leave: %d members, want 2", len(snap.Members))
	}
}

func TestClusterMultipleConnections(t *testing.T) {
	g := soakGraph(t, 8)
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two connections churn concurrently; their state must stay disjoint
	// and both must converge.
	for i := 0; i < 8; i++ {
		if err := c.Join(topo.SwitchID(i), lsa.ConnID(1+i%2), mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []lsa.ConnID{1, 2} {
		snap, ok := c.Node(0).Connection(conn)
		if !ok || len(snap.Members) != 4 {
			t.Fatalf("conn %d: %d members, want 4", conn, len(snap.Members))
		}
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	g, err := topo.Line(3, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewChanFabric(3)
	n, err := NewNode(NodeConfig{ID: 1, Graph: g}, fab.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(1, mctree.SenderReceiver); err != ErrClosed {
		t.Fatalf("Inject after Close = %v, want ErrClosed", err)
	}
	fab.Close()
}

func TestChanFabricClose(t *testing.T) {
	fab := NewChanFabric(2)
	tr := fab.Transport(0)
	if err := tr.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(5, []byte("x")); err == nil {
		t.Fatal("send to unknown switch accepted")
	}
	fab.Close()
	if err := tr.Send(1, []byte("x")); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := tr.Recv(); err != ErrClosed {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
}

func TestUDPTransportPointToPoint(t *testing.T) {
	fab, err := NewUDPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	msg := []byte("hello dgmc")
	if err := fab.Transport(0).Send(1, msg); err != nil {
		t.Fatal(err)
	}
	got, err := fab.Transport(1).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
	if err := fab.Transport(0).Send(9, msg); err == nil {
		t.Fatal("send to unknown peer accepted")
	}
}

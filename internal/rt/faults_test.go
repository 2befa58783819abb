package rt

import (
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// resyncFast is the resync timeout fault tests run with: fast enough that
// recovery rounds fit the test budget, slow enough that timers don't fire
// during healthy exchanges.
const resyncFast = 50 * time.Millisecond

// gridGroups splits a rows×cols grid by column into a left group (columns
// [0, cut)) and a right group (columns [cut, cols)); both sides stay
// internally connected, so intra-side flooding keeps working during the
// split.
func gridGroups(rows, cols, cut int) [][]topo.SwitchID {
	var left, right []topo.SwitchID
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := topo.SwitchID(r*cols + c)
			if c < cut {
				left = append(left, id)
			} else {
				right = append(right, id)
			}
		}
	}
	return [][]topo.SwitchID{left, right}
}

// TestPartitionHealConverges splits a live cluster in two, lets both sides
// diverge (each side admits members the other cannot hear about), heals,
// and requires network-wide agreement on the union — the tentpole
// heal-reconciliation guarantee, on the real runtime.
func TestPartitionHealConverges(t *testing.T) {
	g, err := topo.Grid(2, 4, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	// Pre-split membership spanning both future sides.
	for _, sw := range []topo.SwitchID{0, 3} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	groups := gridGroups(2, 4, 2) // {0,1,4,5} | {2,3,6,7}
	if err := c.Partition(groups); err != nil {
		t.Fatal(err)
	}
	// Both sides admit a member the other side cannot hear about.
	if err := c.Join(5, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(6, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	// Let the split floods drain (and fail to cross) before healing.
	if err := c.Settle(50*time.Millisecond, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// The sides must have actually diverged, or the test proves nothing.
	left, _ := c.Node(0).Connection(conn)
	right, _ := c.Node(3).Connection(conn)
	if _, ok := left.Members[6]; ok {
		t.Fatal("partition leaked: left side learned the right side's join")
	}
	if _, ok := right.Members[5]; ok {
		t.Fatal("partition leaked: right side learned the left side's join")
	}

	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		snap, ok := n.Connection(conn)
		if !ok {
			t.Fatalf("switch %d has no state", n.ID())
		}
		for _, m := range []topo.SwitchID{0, 3, 5, 6} {
			if _, ok := snap.Members[m]; !ok {
				t.Fatalf("switch %d is missing member %d after heal", n.ID(), m)
			}
		}
	}
}

// TestSelfNudgeFloodsWithinStep drives a live switch into commit lag — every
// event it knows of applied, no accepted proposal covering them — and
// recovers it through the self-nudge. On a 3-switch line, switches 0 and 2
// join on opposite sides of a partition that first cuts 0 off, then 2, and
// switch 1 learns 0's join by reconciling with 0 in between: it holds both
// events, but each came with a proposal that knew of only one, and neither
// proposer can hear the other. Firing switch 1's resync check through step,
// as its timer would, must flood the owed proposal before that step
// returns; after the heal the cluster must agree.
func TestSelfNudgeFloodsWithinStep(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// An hour: no gap timer fires by itself; the test fires the checks.
	c, err := NewCluster(ClusterConfig{Graph: g, ResyncTimeout: time.Hour}, NewChanFabric(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	settle := func() {
		t.Helper()
		if err := c.Settle(0, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	const conn = lsa.ConnID(1)
	// resync fires n's gap check through step, as its timer would.
	resync := func(n *Node) { n.step(1, func(m *core.Machine) { m.ResyncFired(conn, n.neighbors) }) }

	if err := c.Partition([][]topo.SwitchID{{0}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []topo.SwitchID{0, 2} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if err := c.Partition([][]topo.SwitchID{{0, 1}, {2}}); err != nil {
		t.Fatal(err)
	}
	n1 := c.Node(1)
	n1.Reconcile(0) // replays 0's join and the proposal that came with it
	settle()
	lag, _ := n1.Connection(conn)
	if len(lag.Members) != 2 || !lag.R.Geq(lag.E) || !lag.R.Greater(lag.C) {
		t.Fatalf("switch 1 is not in commit lag: members %v R=%s E=%s C=%s", lag.Members, lag.R, lag.E, lag.C)
	}

	before := n1.ctl.floodsOrig.Load()
	resync(n1)
	if got := n1.ctl.floodsOrig.Load(); got <= before {
		t.Fatalf("the nudged proposal was not flooded within the step: %d floods before, %d after", before, got)
	}
	settle()

	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	settle()
	resync(c.Node(0)) // 0 still lacks 2's join: it asks switch 1
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartColdRejoin crashes a switch with no snapshot, churns the
// connection while it is dead, restarts it blank, and requires it to
// rebuild everything from its neighbors — including its own event counter:
// the restarted switch then originates a fresh event (a leave) that the
// network must accept, which fails if the counter restarted from zero.
func TestKillRestartColdRejoin(t *testing.T) {
	g, err := topo.Grid(2, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(2)
	for _, sw := range []topo.SwitchID{0, 2, 4} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := c.KillNode(4); err != nil {
		t.Fatal(err)
	}
	if c.Node(4) != nil {
		t.Fatal("killed node still listed")
	}
	if err := c.Join(4, conn, mctree.SenderReceiver); err == nil {
		t.Fatal("inject at a dead switch succeeded")
	}
	if err := c.KillNode(4); err == nil {
		t.Fatal("double kill succeeded")
	}
	// The network churns while switch 4 is down.
	if err := c.Join(1, conn, mctree.SenderReceiver); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := c.RestartNode(4, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(4, nil); err == nil {
		t.Fatal("restart of a live switch succeeded")
	}
	if got := c.Node(4).Epoch(); got != 1 {
		t.Fatalf("restarted epoch = %d, want 1", got)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, ok := c.Node(4).Connection(conn)
	if !ok || len(snap.Members) != 4 {
		t.Fatalf("restarted switch rebuilt %d members, want 4", len(snap.Members))
	}

	// The restarted switch originates a fresh event. If cold rejoin failed
	// to recover its own event counter, this event carries an index the
	// network has already applied and is silently stale-dropped everywhere.
	if err := c.Leave(4, conn); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		snap, _ := n.Connection(conn)
		if _, still := snap.Members[4]; still {
			t.Fatalf("switch %d never applied the restarted switch's leave "+
				"(event counter lost in restart?)", n.ID())
		}
	}
}

// TestSnapshotRestoreRoundtrip restarts a killed switch from a snapshot and
// requires the restored protocol state to match the capture; a corrupted
// snapshot must be refused.
func TestSnapshotRestoreRoundtrip(t *testing.T) {
	g, err := topo.Grid(2, 3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
	}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(3)
	for _, sw := range []topo.SwitchID{1, 3, 5} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	snap := c.Node(3).Snapshot()
	if snap.ID() != 3 || snap.Epoch() != 0 {
		t.Fatalf("snapshot identity = (%d, %d), want (3, 0)", snap.ID(), snap.Epoch())
	}
	before, _ := c.Node(3).Connection(conn)

	// A flipped byte in the captured state must be detected at restore.
	bad := c.Node(3).Snapshot()
	bad.sum[0] ^= 0xff
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(3, bad); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if err := c.RestartNode(3, snap); err != nil {
		t.Fatal(err)
	}
	after, ok := c.Node(3).Connection(conn)
	if !ok {
		t.Fatal("restored switch has no state")
	}
	if !after.R.Equal(before.R) || !after.C.Equal(before.C) || !after.Members.Equal(before.Members) {
		t.Fatalf("restored state differs from capture: R=%s/%s C=%s/%s",
			after.R, before.R, after.C, before.C)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A snapshot must not restore into a different switch.
	other := c.Node(5).Snapshot()
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(3, other); err == nil {
		t.Fatal("snapshot restored into the wrong switch")
	}
	if err := c.RestartNode(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMobilityFaultSoak is the acceptance soak: a 16-switch live cluster
// under continuous membership churn survives two full partition/heal cycles
// and two node crash–restarts (one blank, one from snapshot) and still
// reaches network-wide agreement on the exact replayed membership. Runs
// race-enabled in CI as a blocking gate.
func TestMobilityFaultSoak(t *testing.T) {
	const rows, cols = 4, 4
	g, err := topo.Grid(rows, cols, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
	}, NewChanFabric(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events, err := workload.Churn(workload.Config{
		N: rows * cols, Events: soakEvents, Seed: 11, MeanGap: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	conn := lsa.ConnID(1)
	var deferred []workload.Event // events for a switch that was dead when due
	dead := map[topo.SwitchID]bool{}
	inject := func(ev workload.Event) {
		if dead[ev.Switch] {
			deferred = append(deferred, ev)
			return
		}
		var err error
		if ev.Join {
			err = c.Join(ev.Switch, conn, ev.Role)
		} else {
			err = c.Leave(ev.Switch, conn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	kill := func(sw topo.SwitchID) {
		if err := c.KillNode(sw); err != nil {
			t.Fatal(err)
		}
		dead[sw] = true
	}
	restart := func(sw topo.SwitchID, snap *NodeSnapshot) {
		if err := c.RestartNode(sw, snap); err != nil {
			t.Fatal(err)
		}
		delete(dead, sw)
		// Let the cold rejoin finish before the switch originates anything:
		// an event flooded with a not-yet-recovered counter would be
		// stale-dropped by the rest of the network — the exact failure the
		// rejoin protocol exists to prevent, and one a real switch avoids by
		// not serving its host until recovery completes.
		if err := c.Settle(50*time.Millisecond, 60*time.Second); err != nil {
			t.Fatal(err)
		}
		// Replay the events the switch missed while dead, preserving its
		// per-switch order (membership is a per-switch fold).
		var keep []workload.Event
		for _, ev := range deferred {
			if ev.Switch == sw {
				inject(ev)
			} else {
				keep = append(keep, ev)
			}
		}
		deferred = keep
	}

	groups := gridGroups(rows, cols, 2)
	var snap *NodeSnapshot
	for i, ev := range events {
		switch i {
		case len(events) * 1 / 8: // first split
			if err := c.Partition(groups); err != nil {
				t.Fatal(err)
			}
		case len(events) * 2 / 8: // heal while churn continues
			if err := c.Heal(); err != nil {
				t.Fatal(err)
			}
		case len(events) * 3 / 8: // crash one switch blank
			kill(5)
		case len(events) * 4 / 8: // cold rejoin mid-churn
			restart(5, nil)
		case len(events) * 5 / 8: // second split, other axis of churn
			if err := c.Partition(groups); err != nil {
				t.Fatal(err)
			}
		case len(events) * 6 / 8:
			if err := c.Heal(); err != nil {
				t.Fatal(err)
			}
		case len(events) * 7 / 8: // crash another switch, snapshot in hand
			snap = c.Node(10).Snapshot()
			kill(10)
		case len(events)*7/8 + len(events)/16: // restore from snapshot
			restart(10, snap)
		}
		inject(ev)
	}
	for _, sw := range []topo.SwitchID{5, 10} {
		if dead[sw] {
			restart(sw, nil)
		}
	}
	if len(deferred) != 0 {
		t.Fatalf("%d events never injected", len(deferred))
	}

	if err := c.WaitConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := replayMembers(events)
	for _, n := range c.Nodes() {
		snap, ok := n.Connection(conn)
		if !ok {
			t.Fatalf("switch %d lost all state", n.ID())
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
}

// TestChanFabricKillResetPartition exercises the fabric-level fault surface
// directly: frames to a killed switch drop without wedging the in-flight
// count, a reset attachment receives again, and a partition silently eats
// cross-group frames while intra-group traffic flows.
func TestChanFabricKillResetPartition(t *testing.T) {
	fab := NewChanFabric(4)
	defer fab.Close()
	t0, t1 := fab.Transport(0), fab.Transport(1)

	if err := t0.Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fab.Kill(1); err != nil {
		t.Fatal(err)
	}
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("in-flight after kill = %d, want 0 (queued frames dropped)", got)
	}
	if err := t0.Send(1, []byte("b")); err != ErrClosed {
		t.Fatalf("send to killed switch = %v, want ErrClosed", err)
	}
	if err := fab.Reset(1); err != nil {
		t.Fatal(err)
	}
	if err := t0.Send(1, []byte("c")); err != nil {
		t.Fatalf("send after reset: %v", err)
	}
	got, err := t1.Recv()
	if err != nil || string(got) != "c" {
		t.Fatalf("recv after reset = %q, %v", got, err)
	}

	fab.SetPartition([][]topo.SwitchID{{0, 1}, {2, 3}})
	if err := t0.Send(2, []byte("x")); err != nil {
		t.Fatalf("partitioned send should silently succeed, got %v", err)
	}
	if got := fab.InFlight(); got != 0 {
		t.Fatalf("partitioned frame counted in flight: %d", got)
	}
	if err := t0.Send(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, err := t1.Recv(); err != nil || string(got) != "y" {
		t.Fatalf("intra-group recv = %q, %v", got, err)
	}
	fab.ClearPartition()
	if err := t0.Send(2, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, err := fab.Transport(2).Recv(); err != nil || string(got) != "z" {
		t.Fatalf("post-heal recv = %q, %v", got, err)
	}
}

// TestRestoreResumesTimersUnderFlood restarts a switch from a snapshot that
// holds a scheduled gap timer while its neighbours flood fresh connections
// at it. Re-arming the timer walks the restored machine's connections, and
// the new incarnation's receive loop is stepping that machine from the
// moment it starts, so the walk must go through step like every other
// machine call (run it under -race). The restored switch must end with its
// gap timer armed again.
func TestRestoreResumesTimersUnderFlood(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// An hour: the gap timer never fires by itself.
	c, err := NewCluster(ClusterConfig{Graph: g, ResyncTimeout: time.Hour}, NewChanFabric(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Switch 0's second event on gapConn, with no first: switch 1 buffers it
	// out of order and arms its gap timer. Nobody holds the first, so no
	// rejoin closes the gap.
	// Many connections make the walk long enough for the race to show.
	const gapConn = lsa.ConnID(1 << 20)
	for conn := lsa.ConnID(1 << 16); conn < 1<<16+256; conn++ {
		if err := c.Join(0, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ahead := &lsa.MC{Src: 0, Event: lsa.Join, Role: mctree.SenderReceiver, Conn: gapConn, Stamp: []uint32{2, 0, 0}}
	n1 := c.Node(1)
	n1.step(1, func(m *core.Machine) { m.ReceiveBatch(nil, []any{ahead}) })
	snap := n1.Snapshot()
	if !snap.machine.ResyncArmed(gapConn) {
		t.Fatal("the snapshot holds no scheduled gap timer")
	}

	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for conn := lsa.ConnID(1); ; conn++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, sw := range []topo.SwitchID{0, 2} {
				if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := c.KillNode(1); err != nil {
			t.Fatal(err)
		}
		if err := c.RestartNode(1, snap); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-flooded

	n1 = c.Node(1)
	n1.mu.Lock()
	armed := n1.machine.ResyncArmed(gapConn)
	n1.mu.Unlock()
	n1.timerMu.Lock()
	timers := len(n1.timers)
	n1.timerMu.Unlock()
	if !armed || timers == 0 {
		t.Fatalf("restored switch: gap timer scheduled %v, %d timers running", armed, timers)
	}
}

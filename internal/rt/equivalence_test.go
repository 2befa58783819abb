package rt

import (
	"fmt"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// scriptStep is one membership event of the fixed equivalence script.
type scriptStep struct {
	sw   topo.SwitchID
	conn lsa.ConnID
	join bool
	role mctree.Role
}

// equivalenceScript exercises joins, leaves, a connection that empties
// (dormancy) and is resurrected, and two interleaved connections.
var equivalenceScript = []scriptStep{
	{sw: 0, conn: 1, join: true, role: mctree.SenderReceiver},
	{sw: 3, conn: 1, join: true, role: mctree.SenderReceiver},
	{sw: 5, conn: 1, join: true, role: mctree.Receiver},
	{sw: 2, conn: 2, join: true, role: mctree.SenderReceiver},
	{sw: 4, conn: 2, join: true, role: mctree.SenderReceiver},
	{sw: 3, conn: 1, join: false},
	{sw: 7, conn: 1, join: true, role: mctree.SenderReceiver},
	{sw: 2, conn: 2, join: false},
	{sw: 4, conn: 2, join: false},                             // conn 2 empties: state goes dormant
	{sw: 6, conn: 2, join: true, role: mctree.SenderReceiver}, // and resurrects
	{sw: 1, conn: 2, join: true, role: mctree.SenderReceiver},
	{sw: 0, conn: 1, join: false},
}

// TestSimLiveEquivalence replays the same scripted event sequence through
// the discrete-event simulation kernel and through the live channel-fabric
// runtime, sequentialized with a barrier after every event (the simulator
// runs to quiescence; the live cluster settles). Both runtimes drive the
// same core.Machine, so the final per-switch snapshots must be identical —
// members, all three stamps, installed topology, and install counts.
func TestSimLiveEquivalence(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(8, 99))
	if err != nil {
		t.Fatal(err)
	}

	// --- simulation side, barrier-driven ---
	k := sim.NewKernel()
	net, err := flood.New(k, g.Clone(), 2*time.Microsecond, flood.HopByHop)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDomain(k, core.Config{
		Net: net, Algorithm: route.SPH{}, EncodeLSAs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range equivalenceScript {
		if st.join {
			d.Join(k.Now(), st.sw, st.conn, st.role)
		} else {
			d.Leave(k.Now(), st.sw, st.conn)
		}
		k.Run()
	}
	if err := d.CheckConverged(); err != nil {
		t.Fatalf("sim did not converge: %v", err)
	}

	// --- live side, barrier-driven ---
	c, err := NewCluster(ClusterConfig{Graph: g}, NewChanFabric(g.NumSwitches()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, st := range equivalenceScript {
		if st.join {
			err = c.Join(st.sw, st.conn, st.role)
		} else {
			err = c.Leave(st.sw, st.conn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(25*time.Millisecond, 20*time.Second); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatalf("live cluster did not converge: %v", err)
	}

	// --- compare final per-switch snapshots ---
	for _, conn := range []lsa.ConnID{1, 2} {
		for i := 0; i < g.NumSwitches(); i++ {
			sw := topo.SwitchID(i)
			simSnap, simOK := d.Switch(sw).Connection(conn)
			liveSnap, liveOK := c.Node(sw).Connection(conn)
			if simOK != liveOK {
				t.Fatalf("conn %d switch %d: sim has state=%v, live has state=%v", conn, sw, simOK, liveOK)
			}
			if !simOK {
				continue
			}
			if err := compareSnapshots(simSnap, liveSnap); err != nil {
				t.Errorf("conn %d switch %d: %v", conn, sw, err)
			}
		}
	}
}

func compareSnapshots(a, b core.Snapshot) error {
	if !a.Members.Equal(b.Members) {
		return fmt.Errorf("members differ: sim=%v live=%v", a.Members, b.Members)
	}
	if !a.R.Equal(b.R) {
		return fmt.Errorf("R differs: sim=%s live=%s", a.R, b.R)
	}
	if !a.E.Equal(b.E) {
		return fmt.Errorf("E differs: sim=%s live=%s", a.E, b.E)
	}
	if !a.C.Equal(b.C) {
		return fmt.Errorf("C differs: sim=%s live=%s", a.C, b.C)
	}
	if (a.Topology == nil) != (b.Topology == nil) ||
		(a.Topology != nil && !a.Topology.Equal(b.Topology)) {
		return fmt.Errorf("topologies differ: sim=%v live=%v", a.Topology, b.Topology)
	}
	if a.Installs != b.Installs {
		return fmt.Errorf("install counts differ: sim=%d live=%d", a.Installs, b.Installs)
	}
	return nil
}

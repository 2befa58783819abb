package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// Fabric hands out per-switch transports. ChanFabric and UDPFabric
// implement it.
type Fabric interface {
	Transport(id topo.SwitchID) Transport
	Close() error
}

// ClusterConfig configures a live N-switch fabric in one process.
type ClusterConfig struct {
	// Graph is the fabric topology. Required, and must be connected.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH).
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type.
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold and ResyncTimeout are applied to every node; see
	// NodeConfig.
	ReoptimizeThreshold float64
	ResyncTimeout       time.Duration
	// Tracer and Registry are shared by every node (one network-wide span
	// collector and one registry with per-switch labels); see NodeConfig.
	Tracer   core.Tracer
	Registry *obs.Registry
	// DataHandler, if set, receives every payload the data plane delivers
	// anywhere in the cluster, tagged with the delivering switch. Same
	// contract as NodeConfig.DataHandler: called on the receive goroutine,
	// must not block, payload aliases a pooled buffer.
	DataHandler ClusterDataHandler
	// FlightRecords and SampleEvery enable every node's flight recorder
	// and 1-in-N packet path sampling; see NodeConfig.
	FlightRecords int
	SampleEvery   int
}

// ClusterDataHandler is ClusterConfig.DataHandler: a node-level DataHandler
// plus the identity of the switch that delivered.
type ClusterDataHandler func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte)

// Cluster boots one Node per switch of a graph over a shared fabric: the
// live-runtime counterpart of core.Domain, used by the live harness tests
// and the sim-vs-live equivalence test. Beyond booting and converging, it
// is the fault harness: KillNode/RestartNode crash and recover individual
// switches, Partition/Heal split and reconcile the whole fabric.
type Cluster struct {
	cfg     ClusterConfig
	graph   *topo.Graph
	fabric  Fabric
	chanFab *ChanFabric // non-nil when fabric supports in-flight counting

	// healed / restarts count fault-recovery operations cluster-wide.
	healed, restarts atomic.Uint64

	// mu guards nodes, last, epochs, and partition against concurrent fault
	// operations; steady-state reads (Settle, CheckAgreement) take it too.
	mu    sync.RWMutex
	nodes []*Node // nil entry = switch currently dead
	last  []*Node // most recent incarnation ever, alive or dead
	// epochs tracks each switch's restart epoch; bumped on every restart.
	epochs []uint64
	// partition remembers the active split so Heal knows which boundary
	// links to reconcile.
	partition [][]topo.SwitchID
}

// NewCluster starts one node per switch. It takes ownership of fabric and
// closes it (and any started nodes) on failure.
func NewCluster(cfg ClusterConfig, fabric Fabric) (*Cluster, error) {
	if cfg.Graph == nil {
		fabric.Close()
		return nil, fmt.Errorf("rt: ClusterConfig.Graph is required")
	}
	if !cfg.Graph.Connected() {
		fabric.Close()
		return nil, fmt.Errorf("rt: fabric graph is not connected")
	}
	c := &Cluster{
		cfg:    cfg,
		graph:  cfg.Graph,
		fabric: fabric,
		epochs: make([]uint64, cfg.Graph.NumSwitches()),
	}
	cfg.Registry.CounterFunc("dgmc_partitions_healed_total", func() float64 { return float64(c.healed.Load()) })
	cfg.Registry.CounterFunc("dgmc_node_restarts_total", func() float64 { return float64(c.restarts.Load()) })
	c.chanFab, _ = fabric.(*ChanFabric)
	for i := 0; i < cfg.Graph.NumSwitches(); i++ {
		n, err := c.newNode(topo.SwitchID(i), 0, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.last = append(c.last, n)
	}
	return c, nil
}

// newNode boots one switch at the given restart epoch, optionally from a
// snapshot.
func (c *Cluster) newNode(id topo.SwitchID, epoch uint64, snap *NodeSnapshot) (*Node, error) {
	var dh DataHandler
	if c.cfg.DataHandler != nil {
		h := c.cfg.DataHandler
		dh = func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			h(id, conn, src, seq, payload)
		}
	}
	return NewNode(NodeConfig{
		ID:                  id,
		Graph:               c.cfg.Graph,
		Algorithm:           c.cfg.Algorithm,
		Kinds:               c.cfg.Kinds,
		ReoptimizeThreshold: c.cfg.ReoptimizeThreshold,
		ResyncTimeout:       c.cfg.ResyncTimeout,
		Tracer:              c.cfg.Tracer,
		Registry:            c.cfg.Registry,
		Epoch:               epoch,
		Restore:             snap,
		DataHandler:         dh,
		FlightRecords:       c.cfg.FlightRecords,
		SampleEvery:         c.cfg.SampleEvery,
	}, c.fabric.Transport(id))
}

// Node returns the node currently serving switch id (nil while killed).
func (c *Cluster) Node(id topo.SwitchID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// Nodes returns the cluster's nodes, indexed by switch ID (nil entries for
// killed switches). The slice is a copy; the nodes are shared.
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// KillNode crashes switch id: its goroutines stop, its transport attachment
// closes, and every frame queued for it is dropped — no farewell, no
// link-state event, exactly like a power cut. Requires a ChanFabric (the
// only fabric whose attachments can die independently).
func (c *Cluster) KillNode(id topo.SwitchID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: KillNode requires a ChanFabric")
	}
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("rt: no switch %d", id)
	}
	n := c.nodes[id]
	if n == nil {
		return fmt.Errorf("rt: switch %d is already dead", id)
	}
	// Kill the transport first so the node's receive loop exits, then stop
	// the goroutines. Frames other nodes send it meanwhile fail or drop.
	if err := c.chanFab.Kill(id); err != nil {
		return err
	}
	n.Close()
	c.nodes[id] = nil
	return nil
}

// RestartNode boots a fresh incarnation of a killed switch at the next
// restart epoch. With a snapshot, the incarnation resumes from the captured
// protocol state; without one it boots blank. Either way it immediately
// runs the cold-rejoin path — asking every neighbor for a full replay —
// because even a snapshot is stale by however long the switch was down.
func (c *Cluster) RestartNode(id topo.SwitchID, snap *NodeSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: RestartNode requires a ChanFabric")
	}
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("rt: no switch %d", id)
	}
	if c.nodes[id] != nil {
		return fmt.Errorf("rt: switch %d is not dead", id)
	}
	if err := c.chanFab.Reset(id); err != nil {
		return err
	}
	c.epochs[id]++
	n, err := c.newNode(id, c.epochs[id], snap)
	if err != nil {
		return err
	}
	if prev := c.last[id]; prev != nil {
		prev.succ.Store(n) // keep registry closures pointed at the live machine
	}
	c.nodes[id] = n
	c.last[id] = n
	c.restarts.Add(1)
	n.RejoinFromNeighbors()
	return nil
}

// Partition splits the fabric into groups: every frame between switches in
// different groups is silently dropped from now on. Requires a ChanFabric.
func (c *Cluster) Partition(groups [][]topo.SwitchID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: Partition requires a ChanFabric")
	}
	cp := make([][]topo.SwitchID, len(groups))
	for i, g := range groups {
		cp[i] = append([]topo.SwitchID(nil), g...)
	}
	c.partition = cp
	c.chanFab.SetPartition(cp)
	return nil
}

// Heal removes the active partition and starts heal reconciliation on both
// ends of every graph link the partition had cut: each boundary switch
// advertises its R to its re-reachable neighbor and asks for the log suffix
// beyond it; replayed events re-flood into the interior, so the whole
// network converges to the union of what the sides learned apart.
func (c *Cluster) Heal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: Heal requires a ChanFabric")
	}
	if c.partition == nil {
		return fmt.Errorf("rt: no active partition")
	}
	group := map[topo.SwitchID]int{}
	for i, g := range c.partition {
		for _, s := range g {
			group[s] = i
		}
	}
	c.partition = nil
	c.chanFab.ClearPartition()
	for s := 0; s < c.graph.NumSwitches(); s++ {
		a := topo.SwitchID(s)
		for _, b := range c.graph.Neighbors(a) {
			ga, oka := group[a]
			gb, okb := group[b]
			if a < b && oka && okb && ga != gb {
				if c.nodes[a] != nil {
					c.nodes[a].Reconcile(b)
				}
				if c.nodes[b] != nil {
					c.nodes[b].Reconcile(a)
				}
			}
		}
	}
	c.healed.Add(1)
	return nil
}

// Join injects a join at switch sw for conn.
func (c *Cluster) Join(sw topo.SwitchID, conn lsa.ConnID, role mctree.Role) error {
	n := c.aliveNode(sw)
	if n == nil {
		return fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.Join(conn, role)
}

// Leave injects a leave at switch sw for conn.
func (c *Cluster) Leave(sw topo.SwitchID, conn lsa.ConnID) error {
	n := c.aliveNode(sw)
	if n == nil {
		return fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.Leave(conn)
}

// SendData originates one payload on conn at switch sw. Errors if the
// switch is dead or may not send (see Node.SendData).
func (c *Cluster) SendData(sw topo.SwitchID, conn lsa.ConnID, payload []byte) (uint64, error) {
	seq, _, err := c.SendDataBatch(sw, conn, payload, 1)
	return seq, err
}

// SendDataBatch originates count copies of payload on conn at switch sw in
// one batched call (see Node.SendDataBatch), amortizing per-send setup
// across the batch.
func (c *Cluster) SendDataBatch(sw topo.SwitchID, conn lsa.ConnID, payload []byte, count int) (uint64, int, error) {
	n := c.aliveNode(sw)
	if n == nil {
		return 0, 0, fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.SendDataBatch(conn, payload, count)
}

// ForwardStats sums the data-plane counters across switches, taking each
// switch's latest incarnation, alive or dead. A crashed incarnation's
// counters vanish once it is restarted, exactly as a real switch's would.
func (c *Cluster) ForwardStats() ForwardStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum ForwardStats
	for _, n := range c.last {
		sum.add(n.ForwardStats())
	}
	return sum
}

// aliveNode returns the live node for sw, or nil if out of range or dead.
func (c *Cluster) aliveNode(sw topo.SwitchID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(sw) < 0 || int(sw) >= len(c.nodes) {
		return nil
	}
	return c.nodes[sw]
}

// activityLocked sums the live nodes' work counters; c.mu is held.
func (c *Cluster) activityLocked() uint64 {
	var sum uint64
	for _, n := range c.nodes {
		if n != nil {
			sum += n.activity.Load()
		}
	}
	return sum
}

// quiescent reports whether nothing is pending anywhere in the cluster, and
// the activity count it saw that at. It reads activity, scans every live
// node's idle() and the fabric's in-flight count, and reads activity again —
// all atomic loads under the cluster's read lock, no node or queue lock.
//
// Why a quiet scan between two equal activity readings is exact: every unit
// of pending work is covered, from before it exists until after everything
// it caused is covered itself, by a count the scan reads — a frame by the
// fabric's sent/done until the batch that carried it, LSA step included, is
// settled; a running step or batch, an injected event's included, by busy —
// and every cover drops only after activity was bumped. Equal readings mean
// no bump in between, so no cover that was up at the first reading came
// down before the second: whatever was pending at the first reading is
// still covered when the scan passes over it. A scan that finds nothing
// therefore had nothing to find. Armed resync timers are future events, not
// pending work: they fire into no-ops on a converged network, and counting
// them would make every wait as long as the timeout.
//
// Over UDP, datagrams in flight are invisible and only the idle half holds.
func (c *Cluster) quiescent() (act uint64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	act = c.activityLocked()
	for _, n := range c.nodes {
		if n != nil && !n.idle() {
			return act, false
		}
	}
	if c.chanFab != nil && c.chanFab.InFlight() != 0 {
		return act, false
	}
	return act, c.activityLocked() == act
}

// poll paces a quiescence wait: every 20 µs for the first 2 ms — a burst on
// an in-process fabric is agreed within that, and the wait should end when
// it is — then doubling up to 2 ms, which is what waiting out a resync
// timeout or a soak's drain should cost.
type poll struct {
	start time.Time
	every time.Duration
}

func (p *poll) wait() {
	const fine, coarse = 20 * time.Microsecond, 2 * time.Millisecond
	if p.every == 0 {
		p.start, p.every = time.Now(), fine
	} else if time.Since(p.start) >= coarse {
		p.every = min(2*p.every, coarse)
	}
	time.Sleep(p.every)
}

// Settle blocks until the cluster has been quiescent (see quiescent) with
// no work completed anywhere for idleFor, or errors after timeout. Over UDP,
// in-flight datagrams are invisible, so idleFor must comfortably exceed the
// fabric's delivery latency (loopback: sub-millisecond; the defaults used by
// tests are far above it).
func (c *Cluster) Settle(idleFor, timeout time.Duration) error {
	if _, ok := c.settle(new(poll), idleFor, time.Now().Add(timeout)); !ok {
		return fmt.Errorf("rt: cluster did not settle within %v", timeout)
	}
	return nil
}

// settle is Settle on the caller's poll and deadline; it returns the activity
// count the cluster settled at, or false once the deadline has passed.
func (c *Cluster) settle(p *poll, idleFor time.Duration, deadline time.Time) (uint64, bool) {
	var since time.Time // when the current quiet spell was first seen; zero: none
	var last uint64
	for {
		now := time.Now()
		if act, ok := c.quiescent(); !ok {
			since = time.Time{}
		} else {
			if since.IsZero() || act != last {
				since, last = now, act
			}
			if now.Sub(since) >= idleFor {
				return act, true
			}
		}
		if now.After(deadline) {
			return 0, false
		}
		p.wait()
	}
}

// CheckAgreement verifies the cluster-wide convergence invariant: the same
// check as core.Domain.CheckConverged (core.CheckAgreement), over the live
// nodes, with dead switches skipped.
func (c *Cluster) CheckAgreement() error {
	views := make([]core.View, c.graph.NumSwitches())
	for i, n := range c.Nodes() {
		if n != nil {
			views[i] = n
		}
	}
	return core.CheckAgreement(c.graph, views)
}

// WaitConverged blocks until the cluster is quiescent and in agreement, or
// timeout elapses. On a ChanFabric every pending unit of work is counted, so
// it returns at the first poll that finds nothing pending, CheckAgreement
// holding, and still nothing pending and nothing done since; over UDP it
// first waits out an idle window that covers datagrams in flight. Over lossy
// transports convergence can require resync rounds, so a failed check is
// retried, not fatal — but only once something has been done since:
// agreement cannot change without activity, and CheckAgreement takes every
// node's lock, which a fine poll waiting out a resync timer must not. (A
// kill or restart changes what is checked without any work done, so an
// unchanged count still earns a re-check every recheck.) A cluster that
// stays quiescent in disagreement fails at the deadline with the last
// disagreement; settle alone would return at every poll and never reach it.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	const recheck = 25 * time.Millisecond
	deadline := time.Now().Add(timeout)
	var idleFor time.Duration
	if c.chanFab == nil {
		idleFor = 100 * time.Millisecond // UDP: cover in-flight datagrams
	}
	var p poll
	var failedAt uint64 // activity at the last failed check
	var failed time.Time
	err := fmt.Errorf("rt: never settled")
	for {
		act, ok := c.settle(&p, idleFor, deadline)
		if !ok || time.Now().After(deadline) {
			return fmt.Errorf("rt: cluster did not converge within %v: %w", timeout, err)
		}
		if failed.IsZero() || act != failedAt || time.Since(failed) >= recheck {
			if err = c.CheckAgreement(); err == nil {
				if again, ok := c.quiescent(); ok && again == act {
					return nil
				}
				err = fmt.Errorf("rt: work arrived during the agreement check")
			} else {
				failedAt, failed = act, time.Now()
			}
		}
		p.wait()
	}
}

// Close shuts down every node, then the fabric.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	return c.fabric.Close()
}

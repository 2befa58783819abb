package core

import (
	"errors"
	"fmt"

	"dgmc/internal/faults"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// Metrics aggregates protocol activity network-wide. Flooding operations
// are counted by the flood.Network; everything else here.
type Metrics struct {
	// Events counts EventHandler invocations (one per event per MC).
	Events uint64
	// Computations counts topology computations (proposals computed,
	// whether or not they survive to flooding).
	Computations uint64
	// Withdrawn counts proposals computed but withdrawn as obsolete.
	Withdrawn uint64
	// ComputeNanos accumulates the wall-clock nanoseconds spent inside the
	// topology algorithm (the real cost of Computations; the simulator's
	// virtual Tc is accounted separately by the kernel).
	ComputeNanos uint64
	// Installs counts topology installations across all switches.
	Installs uint64
	// MCLSAs and NonMCLSAs count originated advertisements.
	MCLSAs    uint64
	NonMCLSAs uint64
	// ReoptChecks counts re-optimization estimates run on link recovery
	// (each also counts as a Computation).
	ReoptChecks uint64
	// OutOfOrderLSAs counts event LSAs buffered because they arrived ahead
	// of per-origin order (only possible on lossy/jittery fabrics).
	OutOfOrderLSAs uint64
	// ResyncRequests and ResyncResponses count the gap-recovery exchanges
	// (requests issued when R < E persisted past the resync timeout, and
	// replay responses served to neighbors).
	ResyncRequests  uint64
	ResyncResponses uint64
	// ResyncGiveUps counts connections on which a switch exhausted its
	// resync round budget with the gap still open.
	ResyncGiveUps uint64
	// ResyncRearms counts gaps whose recovery restarted after a give-up
	// because new evidence (a changed R, E, or out-of-order buffer) arrived.
	ResyncRearms uint64
	// Reconciles counts heal-reconciliation exchanges started: one per
	// (connection, neighbor) pair a switch reconciled after a partition
	// healed, plus one per neighbor a restarted switch cold-rejoined from.
	Reconciles uint64
	// Replays counts event LSAs re-flooded after being learned through a
	// resync replay, propagating recovered knowledge beyond the replaying
	// pair (the OSPF rule that LSAs learned during database exchange are
	// flooded onward).
	Replays uint64
	// CatchUpsServed counts catch-up LSAs sent in resync responses (one per
	// origin whose missing events had been trimmed from the server's log);
	// CatchUpsApplied counts catch-ups that fast-forwarded this switch's
	// counter for an origin, whether they arrived in a response or in a
	// neighbor's re-flood. Non-zero Applied means this switch recovered
	// state it cannot replay event by event.
	CatchUpsServed  uint64
	CatchUpsApplied uint64
}

// Config configures a D-GMC domain.
type Config struct {
	// Net is the flooding fabric (carries the network graph). Required.
	Net *flood.Network
	// ComputeTime is Tc, the virtual time a topology computation takes.
	ComputeTime sim.Time
	// Algorithm computes MC topologies. Required.
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type. Connections not listed
	// default to Symmetric. (Deployments derive the type from the group
	// address range; the simulation declares it up front.)
	Kinds map[lsa.ConnID]mctree.Kind
	// Tracer observes protocol activity; nil disables tracing.
	Tracer Tracer
	// EncodeLSAs floods advertisements in their binary wire format instead
	// of as in-memory structs, exercising the lsa codec end-to-end. Off by
	// default because it only costs simulation time.
	EncodeLSAs bool
	// ReoptimizeThreshold enables §3.5's re-optimization policy: when a
	// link recovers, the detecting switch estimates a fresh topology for
	// each live connection and, if the installed tree costs more than
	// (1+threshold)× the fresh one, signals a link event so the network
	// re-converges on the better tree. Zero disables re-optimization
	// (recoveries then only update unicast images, as adverse changes are
	// the only mandatory triggers).
	ReoptimizeThreshold float64
	// ResyncTimeout enables gap recovery on lossy fabrics: when a switch's
	// received stamp R stays below its expected stamp E (or events sit
	// buffered out of order) for this long, the switch requests a resync
	// from a neighbor — a small request/replay exchange analogous to
	// OSPF's database description. Zero disables resync; the protocol then
	// assumes perfectly reliable flooding, as the paper does. Pick a value
	// comfortably above the flooding round (e.g. 2×(Tf+Tc)) so resync only
	// fires for genuine losses, not in-flight LSAs.
	ResyncTimeout sim.Time
	// ResyncMaxRounds bounds resync requests per connection per gap
	// (default 64 when resync is enabled), guaranteeing quiescence even if
	// a gap proves unfillable (e.g. a partitioned helper set).
	ResyncMaxRounds int
}

// Domain is a network of switches all running the D-GMC protocol inside
// one simulation kernel.
type Domain struct {
	k           *sim.Kernel
	net         *flood.Network
	computeTime sim.Time
	algorithm   route.Algorithm
	kinds       map[lsa.ConnID]mctree.Kind
	tracer      Tracer
	encodeLSAs  bool
	reoptThresh float64
	resyncAfter sim.Time
	resyncMax   int
	n           int

	switches []*Switch
	metrics  *Metrics

	lastInstall sim.Time
}

// NewDomain builds the per-switch protocol state and spawns the two
// protocol entities on every switch.
func NewDomain(k *sim.Kernel, cfg Config) (*Domain, error) {
	if cfg.Net == nil {
		return nil, errors.New("core: Config.Net is required")
	}
	if cfg.Algorithm == nil {
		return nil, errors.New("core: Config.Algorithm is required")
	}
	if cfg.ComputeTime < 0 {
		return nil, fmt.Errorf("core: negative compute time %v", cfg.ComputeTime)
	}
	if cfg.ReoptimizeThreshold < 0 {
		return nil, fmt.Errorf("core: negative re-optimization threshold %v", cfg.ReoptimizeThreshold)
	}
	if cfg.ResyncTimeout < 0 {
		return nil, fmt.Errorf("core: negative resync timeout %v", cfg.ResyncTimeout)
	}
	if cfg.ResyncMaxRounds < 0 {
		return nil, fmt.Errorf("core: negative resync round limit %d", cfg.ResyncMaxRounds)
	}
	if cfg.ResyncMaxRounds == 0 {
		cfg.ResyncMaxRounds = 64
	}
	d := &Domain{
		k:           k,
		net:         cfg.Net,
		computeTime: cfg.ComputeTime,
		algorithm:   cfg.Algorithm,
		kinds:       cfg.Kinds,
		tracer:      cfg.Tracer,
		encodeLSAs:  cfg.EncodeLSAs,
		reoptThresh: cfg.ReoptimizeThreshold,
		resyncAfter: cfg.ResyncTimeout,
		resyncMax:   cfg.ResyncMaxRounds,
		n:           cfg.Net.Graph().NumSwitches(),
		metrics:     &Metrics{},
	}
	d.switches = make([]*Switch, d.n)
	for i := 0; i < d.n; i++ {
		sw, err := newSwitch(d, topo.SwitchID(i))
		if err != nil {
			return nil, err
		}
		d.switches[i] = sw
		k.Spawn(fmt.Sprintf("dgmc-%d-events", i), sw.eventLoop)
		k.Spawn(fmt.Sprintf("dgmc-%d-lsa", i), sw.lsaLoop)
	}
	return d, nil
}

// kindOf returns the declared MC type for conn (default Symmetric).
func (d *Domain) kindOf(conn lsa.ConnID) mctree.Kind {
	if k, ok := d.kinds[conn]; ok {
		return k
	}
	return mctree.Symmetric
}

// Switch returns switch s.
func (d *Domain) Switch(s topo.SwitchID) *Switch { return d.switches[s] }

// NumSwitches returns the domain size.
func (d *Domain) NumSwitches() int { return d.n }

// Metrics returns the live metrics (valid to read when the kernel is idle).
func (d *Domain) Metrics() *Metrics { return d.metrics }

// Network returns the flooding fabric.
func (d *Domain) Network() *flood.Network { return d.net }

// LastInstall returns the virtual time of the most recent topology
// installation anywhere in the domain — the convergence instant once the
// simulation is quiescent.
func (d *Domain) LastInstall() sim.Time { return d.lastInstall }

func (d *Domain) noteInstall() { d.lastInstall = d.k.Now() }

// Join schedules a host-driven join of connection conn at ingress switch s
// with the given role, at virtual time at.
func (d *Domain) Join(at sim.Time, s topo.SwitchID, conn lsa.ConnID, role mctree.Role) {
	d.switches[s].events.Send(LocalEvent{Conn: conn, Kind: lsa.Join, Role: role}, at-d.k.Now())
}

// Leave schedules a host-driven leave of connection conn at switch s.
func (d *Domain) Leave(at sim.Time, s topo.SwitchID, conn lsa.ConnID) {
	d.switches[s].events.Send(LocalEvent{Conn: conn, Kind: lsa.Leave}, at-d.k.Now())
}

// FailLink schedules a failure of link (a,b), detected by switch a.
func (d *Domain) FailLink(at sim.Time, a, b topo.SwitchID) {
	d.switches[a].events.Send(LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: a, B: b, Down: true}}, at-d.k.Now())
}

// RestoreLink schedules a recovery of link (a,b), detected by switch a.
func (d *Domain) RestoreLink(at sim.Time, a, b topo.SwitchID) {
	d.switches[a].events.Send(LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: a, B: b, Down: false}}, at-d.k.Now())
}

// FailSwitch schedules a nodal failure of switch s at time at: every link
// incident to s fails, each detected independently by its surviving
// neighbour — the paper's "nodal events". The failed switch keeps its
// stale state but is cut off from all further flooding.
func (d *Domain) FailSwitch(at sim.Time, s topo.SwitchID) {
	for _, nb := range d.net.Graph().Neighbors(s) {
		d.switches[nb].events.Send(
			LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: nb, B: s, Down: true}},
			at-d.k.Now())
	}
}

// Reconcile schedules a heal-reconciliation exchange at virtual time at:
// switch a sends neighbor b one resync request per known connection,
// advertising a's R stamps (see Machine.ReconcileNeighbor). Call it for
// both directions of every boundary link when a partition heals.
func (d *Domain) Reconcile(at sim.Time, a, b topo.SwitchID) {
	d.k.After(at-d.k.Now(), func() { d.switches[a].m.ReconcileNeighbor(b) })
}

// SchedulePartitionHeal schedules the protocol half of a transport
// partition (faults.Partition in the fabric's fault plan): at p.HealAt,
// every up fabric link crossing p's groups reconciles in both directions,
// modelling the hello-protocol contact both sides make when connectivity
// returns. Replayed events re-flood from the boundary, so each side's
// interior converges too. A never-healing partition (HealAt zero) gets no
// reconciliation.
func (d *Domain) SchedulePartitionHeal(p faults.Partition) {
	if p.HealAt == 0 {
		return
	}
	g := d.net.Graph()
	for s := 0; s < d.n; s++ {
		a := topo.SwitchID(s)
		for _, b := range g.Neighbors(a) {
			if a < b && p.Crosses(a, b) {
				d.Reconcile(p.HealAt, a, b)
				d.Reconcile(p.HealAt, b, a)
			}
		}
	}
}

// trace forwards to the configured tracer, if any.
func (d *Domain) trace(kind TraceKind, chain ChainID, sw topo.SwitchID, conn lsa.ConnID, format string, args ...any) {
	if d.tracer == nil {
		return
	}
	d.tracer.Trace(TraceEntry{
		At:     d.k.Now(),
		Kind:   kind,
		Switch: sw,
		Conn:   conn,
		Chain:  chain,
		Detail: fmt.Sprintf(format, args...),
	})
}

// CheckConverged verifies that the domain has reached consensus by
// CheckAgreement over the current network graph. Call it only when the
// kernel is quiescent.
func (d *Domain) CheckConverged() error {
	views := make([]View, d.n)
	for i, sw := range d.switches {
		views[i] = sw
	}
	if err := CheckAgreement(d.net.Graph(), views); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

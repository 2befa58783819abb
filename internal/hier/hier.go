// Package hier implements the two-level hierarchical extension of D-GMC
// that the paper names as ongoing work (§2): "Scalability can be addressed
// by introducing a routing hierarchy into large networks. The combination
// of an LSR protocol and routing hierarchy is under consideration for the
// ATM PNNI standard."
//
// The model is the *basic* PNNI-style hierarchy:
//
//   - the network is partitioned into areas, each with one gateway
//     (border) switch;
//   - gateways are interconnected by backbone links;
//   - every area runs its own D-GMC domain with area-scoped flooding, and
//     the gateways additionally run a backbone D-GMC domain;
//   - a multipoint connection spanning several areas is realized as the
//     union of one intra-area tree per active area (anchored at the
//     area's gateway) and one backbone tree over the active gateways.
//
// Because every component tree is built by the unmodified core protocol,
// all of D-GMC's properties (event-driven proposals, vector-timestamp
// consistency, withddrawal of stale proposals) hold per level; the
// hierarchy's win is that a membership event floods only its own area
// (plus, on area activation/deactivation, the much smaller backbone)
// instead of the whole network.
//
// The coordinator that joins/leaves gateways as areas activate models the
// aggregation logic real border switches would derive from their
// area-scoped membership LSAs; in this simulation it reacts to the same
// events at the same virtual instants.
package hier

import (
	"errors"
	"fmt"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// ErrGatewayMember is returned when a host membership is requested at a
// gateway switch; the basic hierarchy reserves gateways for transit.
var ErrGatewayMember = errors.New("hier: gateway switches cannot host members")

// AreaSpec describes one area of the partition, in global switch IDs.
type AreaSpec struct {
	// Switches lists the area's switches (including the gateway).
	Switches []topo.SwitchID
	// Gateway is the area's border switch; it must be in Switches and is
	// the only switch with backbone links.
	Gateway topo.SwitchID
}

// Config configures a hierarchical domain.
type Config struct {
	// Global is the full topology: intra-area links plus backbone links
	// between gateways. Required.
	Global *topo.Graph
	// Areas partitions the global switches. Required.
	Areas []AreaSpec
	// PerHop is the per-hop LSA time used on both levels.
	PerHop sim.Time
	// Tc is the topology computation time on both levels.
	Tc sim.Time
	// Algorithm computes MC topologies (default route.SPH{}).
	Algorithm route.Algorithm
}

// area is one level-1 domain with its ID mappings.
type area struct {
	spec         AreaSpec
	graph        *topo.Graph
	net          *flood.Network
	domain       *core.Domain
	toLocal      map[topo.SwitchID]topo.SwitchID
	toGlobal     []topo.SwitchID
	localGateway topo.SwitchID
}

// Domain is a hierarchical D-GMC network: per-area domains plus a backbone
// domain over the gateways, sharing one simulation kernel.
type Domain struct {
	k   *sim.Kernel
	cfg Config

	areas    []*area
	areaOf   map[topo.SwitchID]int // global switch -> area index
	backbone *area                 // gateways as a pseudo-area

	// members tracks real (host) members per connection per area, to run
	// the activation logic.
	members map[lsa.ConnID]map[int]map[topo.SwitchID]bool
	// anchored tracks which areas currently have their gateway joined to
	// the area-level and backbone-level MCs.
	anchored map[lsa.ConnID]map[int]bool
}

// NewDomain validates the partition and builds all level domains.
func NewDomain(k *sim.Kernel, cfg Config) (*Domain, error) {
	if cfg.Global == nil {
		return nil, errors.New("hier: Config.Global is required")
	}
	if len(cfg.Areas) < 2 {
		return nil, fmt.Errorf("hier: need at least 2 areas, got %d", len(cfg.Areas))
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = route.SPH{}
	}
	d := &Domain{
		k:        k,
		cfg:      cfg,
		areaOf:   make(map[topo.SwitchID]int),
		members:  make(map[lsa.ConnID]map[int]map[topo.SwitchID]bool),
		anchored: make(map[lsa.ConnID]map[int]bool),
	}
	// Partition validation: every switch in exactly one area.
	for ai, spec := range cfg.Areas {
		if len(spec.Switches) == 0 {
			return nil, fmt.Errorf("hier: area %d is empty", ai)
		}
		gwOK := false
		for _, s := range spec.Switches {
			if s < 0 || int(s) >= cfg.Global.NumSwitches() {
				return nil, fmt.Errorf("hier: area %d switch %d out of range", ai, s)
			}
			if prev, dup := d.areaOf[s]; dup {
				return nil, fmt.Errorf("hier: switch %d in areas %d and %d", s, prev, ai)
			}
			d.areaOf[s] = ai
			if s == spec.Gateway {
				gwOK = true
			}
		}
		if !gwOK {
			return nil, fmt.Errorf("hier: area %d gateway %d not among its switches", ai, spec.Gateway)
		}
	}
	if len(d.areaOf) != cfg.Global.NumSwitches() {
		return nil, fmt.Errorf("hier: partition covers %d of %d switches", len(d.areaOf), cfg.Global.NumSwitches())
	}
	// Link validation: intra-area anywhere; inter-area only gateway-to-gateway.
	for _, l := range cfg.Global.Links() {
		aA, aB := d.areaOf[l.A], d.areaOf[l.B]
		if aA == aB {
			continue
		}
		if l.A != cfg.Areas[aA].Gateway || l.B != cfg.Areas[aB].Gateway {
			return nil, fmt.Errorf("hier: inter-area link (%d,%d) not between gateways", l.A, l.B)
		}
	}

	// Build area domains.
	for ai, spec := range cfg.Areas {
		a, err := d.buildArea(ai, spec)
		if err != nil {
			return nil, err
		}
		d.areas = append(d.areas, a)
	}
	// Build the backbone domain over the gateways.
	bb, err := d.buildBackbone()
	if err != nil {
		return nil, err
	}
	d.backbone = bb
	return d, nil
}

// buildArea extracts the area subgraph, remaps IDs, and spins up a D-GMC
// domain with area-scoped flooding.
func (d *Domain) buildArea(ai int, spec AreaSpec) (*area, error) {
	a := &area{
		spec:     spec,
		toLocal:  make(map[topo.SwitchID]topo.SwitchID, len(spec.Switches)),
		toGlobal: make([]topo.SwitchID, len(spec.Switches)),
	}
	ids := append([]topo.SwitchID(nil), spec.Switches...)
	sortSwitches(ids)
	for i, s := range ids {
		a.toLocal[s] = topo.SwitchID(i)
		a.toGlobal[i] = s
	}
	a.localGateway = a.toLocal[spec.Gateway]
	a.graph = topo.New(len(ids))
	for _, l := range d.cfg.Global.Links() {
		la, okA := a.toLocal[l.A]
		lb, okB := a.toLocal[l.B]
		if !okA || !okB {
			continue
		}
		if err := a.graph.AddLink(la, lb, l.Delay, l.Capacity); err != nil {
			return nil, fmt.Errorf("hier: area %d: %w", ai, err)
		}
	}
	if !a.graph.Connected() {
		return nil, fmt.Errorf("hier: area %d subgraph is disconnected", ai)
	}
	net, err := flood.New(d.k, a.graph, d.cfg.PerHop, flood.Direct)
	if err != nil {
		return nil, err
	}
	a.net = net
	dom, err := core.NewDomain(d.k, core.Config{Net: net, ComputeTime: d.cfg.Tc, Algorithm: d.cfg.Algorithm})
	if err != nil {
		return nil, err
	}
	a.domain = dom
	return a, nil
}

// buildBackbone assembles the gateway-level pseudo-area.
func (d *Domain) buildBackbone() (*area, error) {
	a := &area{toLocal: make(map[topo.SwitchID]topo.SwitchID, len(d.cfg.Areas))}
	for ai, spec := range d.cfg.Areas {
		a.toLocal[spec.Gateway] = topo.SwitchID(ai)
		a.toGlobal = append(a.toGlobal, spec.Gateway)
	}
	a.graph = topo.New(len(d.cfg.Areas))
	for _, l := range d.cfg.Global.Links() {
		if d.areaOf[l.A] == d.areaOf[l.B] {
			continue
		}
		if err := a.graph.AddLink(a.toLocal[l.A], a.toLocal[l.B], l.Delay, l.Capacity); err != nil {
			return nil, fmt.Errorf("hier: backbone: %w", err)
		}
	}
	if !a.graph.Connected() {
		return nil, errors.New("hier: backbone is disconnected")
	}
	net, err := flood.New(d.k, a.graph, d.cfg.PerHop, flood.Direct)
	if err != nil {
		return nil, err
	}
	a.net = net
	dom, err := core.NewDomain(d.k, core.Config{Net: net, ComputeTime: d.cfg.Tc, Algorithm: d.cfg.Algorithm})
	if err != nil {
		return nil, err
	}
	a.domain = dom
	return a, nil
}

func sortSwitches(ids []topo.SwitchID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Area returns area ai's core domain (for inspection).
func (d *Domain) Area(ai int) *core.Domain { return d.areas[ai].domain }

// Backbone returns the gateway-level core domain.
func (d *Domain) Backbone() *core.Domain { return d.backbone.domain }

// Join schedules a host join at global switch s. Gateways cannot host
// members in the basic hierarchy.
func (d *Domain) Join(at sim.Time, s topo.SwitchID, conn lsa.ConnID, role mctree.Role) error {
	ai, ok := d.areaOf[s]
	if !ok {
		return fmt.Errorf("hier: unknown switch %d", s)
	}
	if s == d.cfg.Areas[ai].Gateway {
		return fmt.Errorf("%w: %d", ErrGatewayMember, s)
	}
	a := d.areas[ai]
	a.domain.Join(at, a.toLocal[s], conn, role)
	d.trackJoin(at, ai, s, conn)
	return nil
}

// Leave schedules a host leave at global switch s.
func (d *Domain) Leave(at sim.Time, s topo.SwitchID, conn lsa.ConnID) error {
	ai, ok := d.areaOf[s]
	if !ok {
		return fmt.Errorf("hier: unknown switch %d", s)
	}
	if s == d.cfg.Areas[ai].Gateway {
		return fmt.Errorf("%w: %d", ErrGatewayMember, s)
	}
	a := d.areas[ai]
	a.domain.Leave(at, a.toLocal[s], conn)
	d.trackLeave(at, ai, s, conn)
	return nil
}

// trackJoin updates the activation state machine after scheduling a join.
func (d *Domain) trackJoin(at sim.Time, ai int, s topo.SwitchID, conn lsa.ConnID) {
	per := d.members[conn]
	if per == nil {
		per = make(map[int]map[topo.SwitchID]bool)
		d.members[conn] = per
	}
	if per[ai] == nil {
		per[ai] = make(map[topo.SwitchID]bool)
	}
	per[ai][s] = true
	d.reconcile(at, conn)
}

// trackLeave updates the activation state machine after scheduling a leave.
func (d *Domain) trackLeave(at sim.Time, ai int, s topo.SwitchID, conn lsa.ConnID) {
	per := d.members[conn]
	if per == nil {
		return
	}
	delete(per[ai], s)
	if len(per[ai]) == 0 {
		delete(per, ai)
	}
	d.reconcile(at, conn)
}

// reconcile joins/leaves gateways so that: when ≥2 areas host members,
// every active area's gateway is a member of both its area MC and the
// backbone MC; otherwise no gateway participates.
func (d *Domain) reconcile(at sim.Time, conn lsa.ConnID) {
	per := d.members[conn]
	anchored := d.anchored[conn]
	if anchored == nil {
		anchored = make(map[int]bool)
		d.anchored[conn] = anchored
	}
	wantAnchors := len(per) >= 2
	for ai := range d.areas {
		active := len(per[ai]) > 0
		want := wantAnchors && active
		if want && !anchored[ai] {
			a := d.areas[ai]
			a.domain.Join(at, a.localGateway, conn, mctree.SenderReceiver)
			d.backbone.domain.Join(at, d.backbone.toLocal[a.spec.Gateway], conn, mctree.SenderReceiver)
			anchored[ai] = true
		} else if !want && anchored[ai] {
			a := d.areas[ai]
			a.domain.Leave(at, a.localGateway, conn)
			d.backbone.domain.Leave(at, d.backbone.toLocal[a.spec.Gateway], conn)
			anchored[ai] = false
		}
	}
}

// CheckConverged verifies every level domain converged.
func (d *Domain) CheckConverged() error {
	for ai, a := range d.areas {
		if err := a.domain.CheckConverged(); err != nil {
			return fmt.Errorf("hier: area %d: %w", ai, err)
		}
	}
	if err := d.backbone.domain.CheckConverged(); err != nil {
		return fmt.Errorf("hier: backbone: %w", err)
	}
	return nil
}

// GlobalTopology assembles the global MC tree for conn: the union of every
// active area's tree and the backbone tree, in global switch IDs. Returns
// nil when the connection has no members anywhere.
func (d *Domain) GlobalTopology(conn lsa.ConnID) (*mctree.Tree, error) {
	out := mctree.New(mctree.Symmetric)
	found := false
	add := func(a *area) error {
		snap, ok := a.domain.Switch(0).Connection(conn)
		if !ok || len(snap.Members) == 0 {
			return nil
		}
		if snap.Topology == nil {
			return fmt.Errorf("hier: no topology installed")
		}
		found = true
		for _, e := range snap.Topology.Edges() {
			out.AddEdge(a.toGlobal[e.A], a.toGlobal[e.B])
		}
		return nil
	}
	for _, a := range d.areas {
		if err := add(a); err != nil {
			return nil, err
		}
	}
	if err := add(d.backbone); err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	return out, nil
}

// GlobalMembers returns the host member set of conn in global IDs,
// according to the coordinator's bookkeeping.
func (d *Domain) GlobalMembers(conn lsa.ConnID) mctree.Members {
	out := mctree.Members{}
	for _, per := range d.members[conn] {
		for s := range per {
			out[s] = mctree.SenderReceiver
		}
	}
	return out
}

// Stats aggregates protocol costs across all levels.
type Stats struct {
	// Events, Computations: summed core metrics over all level domains.
	Events, Computations uint64
	// Floodings and Copies: summed flooding fabric counters. Copies is the
	// total point-to-point transmissions — the quantity the hierarchy
	// shrinks, since floods stay inside their area.
	Floodings, Copies uint64
}

// Stats returns the aggregated costs.
func (d *Domain) Stats() Stats {
	var st Stats
	collect := func(a *area) {
		m := a.domain.Metrics()
		st.Events += m.Events
		st.Computations += m.Computations
		st.Floodings += a.net.Floodings()
		st.Copies += a.net.Copies()
	}
	for _, a := range d.areas {
		collect(a)
	}
	collect(d.backbone)
	return st
}

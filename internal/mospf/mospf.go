// Package mospf implements the MOSPF-style baseline the paper compares
// against (§2): multicast membership is flooded in group-membership LSAs,
// and topology computation is on-demand and data-driven — when a datagram
// for group G from source S reaches a router with no (S,G) cache entry, the
// router computes a shortest-path tree rooted at S spanning G's members,
// caches it, and forwards along it. Forwarding then triggers the same
// computation at every downstream router, so one membership event followed
// by one datagram costs a topology computation at every switch involved in
// the MC.
//
// The package exists to reproduce the paper's overhead comparison; it
// implements enough of MOSPF (RFC 1584's cost model, not its full packet
// formats) to measure computations and floodings per event faithfully.
package mospf

import (
	"errors"
	"fmt"

	"dgmc/internal/flood"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// GroupID identifies a multicast group.
type GroupID uint32

// Metrics aggregates baseline activity network-wide.
type Metrics struct {
	// Events counts membership events.
	Events uint64
	// Computations counts SPT computations (cache misses).
	Computations uint64
	// Datagrams counts data packets injected.
	Datagrams uint64
	// Forwards counts hop-by-hop datagram copies.
	Forwards uint64
	// Delivered counts datagram arrivals at member switches.
	Delivered uint64
}

// membershipLSA is flooded when a switch's membership in a group changes.
type membershipLSA struct {
	src   topo.SwitchID
	group GroupID
	join  bool
}

// datagram is a forwarded data packet.
type datagram struct {
	source topo.SwitchID
	group  GroupID
	from   topo.SwitchID // upstream switch, to avoid reflecting
	id     uint64
}

type cacheKey struct {
	source topo.SwitchID
	group  GroupID
}

// Config configures a MOSPF domain.
type Config struct {
	// Net is the flooding fabric. Required.
	Net *flood.Network
	// ComputeTime is the cost of one SPT computation.
	ComputeTime sim.Time
}

// Domain runs the MOSPF baseline on every switch of the network.
type Domain struct {
	k           *sim.Kernel
	net         *flood.Network
	computeTime sim.Time
	n           int

	switches []*mswitch
	metrics  *Metrics
	nextID   uint64
}

type mswitch struct {
	id      topo.SwitchID
	d       *Domain
	image   *topo.Graph
	members map[GroupID]mctree.Members
	cache   map[cacheKey]*mctree.Tree
	data    *sim.Mailbox
	// computing is set while the data path holds a datagram for an SPT
	// computation; datagrams arriving meanwhile stay queued.
	computing bool
}

// NewDomain builds the per-switch state and registers each switch's LSA
// and data-plane receivers.
func NewDomain(k *sim.Kernel, cfg Config) (*Domain, error) {
	if cfg.Net == nil {
		return nil, errors.New("mospf: Config.Net is required")
	}
	if cfg.ComputeTime < 0 {
		return nil, fmt.Errorf("mospf: negative compute time %v", cfg.ComputeTime)
	}
	d := &Domain{
		k:           k,
		net:         cfg.Net,
		computeTime: cfg.ComputeTime,
		n:           cfg.Net.Graph().NumSwitches(),
		metrics:     &Metrics{},
	}
	d.switches = make([]*mswitch, d.n)
	for i := 0; i < d.n; i++ {
		sw := &mswitch{
			id:      topo.SwitchID(i),
			d:       d,
			image:   cfg.Net.Graph().Clone(),
			members: make(map[GroupID]mctree.Members),
			cache:   make(map[cacheKey]*mctree.Tree),
			data:    sim.NewMailbox(k),
		}
		d.switches[i] = sw
		cfg.Net.Mailbox(sw.id).OnDeliver(sw.receiveLSAs)
		sw.data.OnDeliver(sw.serveData)
	}
	return d, nil
}

// Metrics returns the live metrics.
func (d *Domain) Metrics() *Metrics { return d.metrics }

// Members returns switch s's view of group g's member set.
func (d *Domain) Members(s topo.SwitchID, g GroupID) mctree.Members {
	return d.switches[s].members[g].Clone()
}

// CacheSize returns the number of cached (source, group) trees at switch s.
func (d *Domain) CacheSize(s topo.SwitchID) int { return len(d.switches[s].cache) }

// Join schedules a membership join at switch s for group g.
func (d *Domain) Join(at sim.Time, s topo.SwitchID, g GroupID) {
	d.k.ScheduleAt(at, func() {
		sw := d.switches[s]
		sw.applyMembership(membershipLSA{src: s, group: g, join: true})
		d.metrics.Events++
		d.net.Flood(s, membershipLSA{src: s, group: g, join: true})
	})
}

// Leave schedules a membership leave at switch s for group g.
func (d *Domain) Leave(at sim.Time, s topo.SwitchID, g GroupID) {
	d.k.ScheduleAt(at, func() {
		sw := d.switches[s]
		sw.applyMembership(membershipLSA{src: s, group: g, join: false})
		d.metrics.Events++
		d.net.Flood(s, membershipLSA{src: s, group: g, join: false})
	})
}

// SendDatagram schedules a data packet from source s to group g — the
// data-driven trigger for MOSPF's topology computations.
func (d *Domain) SendDatagram(at sim.Time, s topo.SwitchID, g GroupID) {
	d.k.ScheduleAt(at, func() {
		d.nextID++
		d.metrics.Datagrams++
		d.switches[s].data.Send(datagram{source: s, group: g, from: topo.NoSwitch, id: d.nextID}, 0)
	})
}

func (sw *mswitch) applyMembership(m membershipLSA) {
	g := sw.members[m.group]
	if g == nil {
		g = make(mctree.Members)
		sw.members[m.group] = g
	}
	if m.join {
		g[m.src] = mctree.SenderReceiver
	} else {
		delete(g, m.src)
	}
	// Membership changed: every cached tree for this group is stale.
	for key := range sw.cache {
		if key.group == m.group {
			delete(sw.cache, key)
		}
	}
}

// receiveLSAs applies flooded membership LSAs.
func (sw *mswitch) receiveLSAs() {
	for _, raw := range sw.d.net.Mailbox(sw.id).Drain() {
		if del, ok := raw.(flood.Delivery); ok {
			if m, ok := del.Payload.(membershipLSA); ok {
				sw.applyMembership(m)
			}
		}
	}
}

// serveData forwards queued datagrams, computing an SPT on cache miss — the
// heart of the data-driven cost model. A miss holds the data path for the
// computation time; the datagram is forwarded, and the queue served on, when
// the computation ends.
func (sw *mswitch) serveData() {
	for !sw.computing {
		raw, ok := sw.data.TryRecv()
		if !ok {
			return
		}
		dg, ok := raw.(datagram)
		if !ok {
			continue
		}
		key := cacheKey{dg.source, dg.group}
		if tree, cached := sw.cache[key]; cached {
			sw.forward(dg, tree)
			continue
		}
		sw.d.metrics.Computations++
		sw.computing = true
		sw.d.k.Schedule(sw.d.computeTime, func() {
			sw.computing = false
			members := sw.members[dg.group]
			t, err := (route.SPT{}).Compute(sw.image, mctree.Asymmetric, withSource(members, dg.source))
			if err == nil { // else no route to some member; drop
				sw.cache[key] = t
				sw.forward(dg, t)
			}
			sw.serveData()
		})
	}
}

// forward delivers dg locally if this switch is a receiving member and
// sends it on along tree.
func (sw *mswitch) forward(dg datagram, tree *mctree.Tree) {
	if m, ok := sw.members[dg.group][sw.id]; ok && m.CanReceive() {
		sw.d.metrics.Delivered++
	}
	for _, nb := range tree.Neighbors(sw.id) {
		if nb == dg.from {
			continue
		}
		l, ok := sw.image.Link(sw.id, nb)
		if !ok || l.Down {
			continue
		}
		sw.d.metrics.Forwards++
		fwd := dg
		fwd.from = sw.id
		sw.d.switches[nb].data.Send(fwd, l.Delay+sw.d.net.PerHop())
	}
}

// withSource returns the group members as receivers plus the datagram
// source as the sole sender, so the SPT roots at the source even when it is
// not itself a group member.
func withSource(members mctree.Members, src topo.SwitchID) mctree.Members {
	out := make(mctree.Members, len(members)+1)
	for k := range members {
		out[k] = mctree.Receiver
	}
	out[src] |= mctree.Sender
	return out
}

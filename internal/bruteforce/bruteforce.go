// Package bruteforce implements the "brute-force LSR-based MC protocol" of
// the paper's §2: the straightforward event-driven extension of link-state
// routing in which *every* switch, upon receiving a membership LSA, updates
// its local database and immediately recomputes the topology of the
// affected MC. It is fully general (like D-GMC) but a single event triggers
// n redundant computations in an n-switch network — the overhead D-GMC is
// designed to eliminate.
package bruteforce

import (
	"errors"
	"fmt"

	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

// Metrics aggregates baseline activity network-wide.
type Metrics struct {
	// Events counts membership events.
	Events uint64
	// Computations counts topology computations across all switches.
	Computations uint64
	// Installs counts installed topologies.
	Installs uint64
}

// membershipLSA announces a membership change.
type membershipLSA struct {
	src  topo.SwitchID
	conn lsa.ConnID
	role mctree.Role
	join bool
}

// Config configures a brute-force domain.
type Config struct {
	// Net is the flooding fabric. Required.
	Net *flood.Network
	// ComputeTime is the per-switch topology computation cost.
	ComputeTime sim.Time
	// Algorithm computes MC topologies. Required.
	Algorithm route.Algorithm
}

// Domain runs the brute-force protocol on every switch.
type Domain struct {
	k           *sim.Kernel
	net         *flood.Network
	computeTime sim.Time
	algorithm   route.Algorithm
	n           int

	switches []*bswitch
	metrics  *Metrics
}

type bswitch struct {
	id       topo.SwitchID
	d        *Domain
	image    *topo.Graph
	members  map[lsa.ConnID]mctree.Members
	topology map[lsa.ConnID]*mctree.Tree
	// computing is set while the switch computes a topology; LSAs arriving
	// meanwhile stay queued.
	computing bool
}

// NewDomain builds per-switch state and registers each switch's LSA
// receiver.
func NewDomain(k *sim.Kernel, cfg Config) (*Domain, error) {
	if cfg.Net == nil {
		return nil, errors.New("bruteforce: Config.Net is required")
	}
	if cfg.Algorithm == nil {
		return nil, errors.New("bruteforce: Config.Algorithm is required")
	}
	if cfg.ComputeTime < 0 {
		return nil, fmt.Errorf("bruteforce: negative compute time %v", cfg.ComputeTime)
	}
	d := &Domain{
		k:           k,
		net:         cfg.Net,
		computeTime: cfg.ComputeTime,
		algorithm:   cfg.Algorithm,
		n:           cfg.Net.Graph().NumSwitches(),
		metrics:     &Metrics{},
	}
	d.switches = make([]*bswitch, d.n)
	for i := 0; i < d.n; i++ {
		sw := &bswitch{
			id:       topo.SwitchID(i),
			d:        d,
			image:    cfg.Net.Graph().Clone(),
			members:  make(map[lsa.ConnID]mctree.Members),
			topology: make(map[lsa.ConnID]*mctree.Tree),
		}
		d.switches[i] = sw
		cfg.Net.Mailbox(sw.id).OnDeliver(sw.serve)
	}
	return d, nil
}

// Metrics returns the live metrics.
func (d *Domain) Metrics() *Metrics { return d.metrics }

// Topology returns switch s's installed topology for conn, or nil.
func (d *Domain) Topology(s topo.SwitchID, conn lsa.ConnID) *mctree.Tree {
	t := d.switches[s].topology[conn]
	if t == nil {
		return nil
	}
	return t.Clone()
}

// Members returns switch s's member list for conn.
func (d *Domain) Members(s topo.SwitchID, conn lsa.ConnID) mctree.Members {
	return d.switches[s].members[conn].Clone()
}

// Join schedules a membership join at switch s.
func (d *Domain) Join(at sim.Time, s topo.SwitchID, conn lsa.ConnID, role mctree.Role) {
	d.event(at, membershipLSA{src: s, conn: conn, role: role, join: true})
}

// Leave schedules a membership leave at switch s.
func (d *Domain) Leave(at sim.Time, s topo.SwitchID, conn lsa.ConnID) {
	d.event(at, membershipLSA{src: s, conn: conn, join: false})
}

func (d *Domain) event(at sim.Time, m membershipLSA) {
	d.k.ScheduleAt(at, func() {
		d.metrics.Events++
		// The detecting switch processes the event like any other LSA; its
		// computation is folded into its own loop via a self-delivery.
		d.net.Mailbox(m.src).Send(flood.Delivery{Origin: m.src, Payload: m}, 0)
		d.net.Flood(m.src, m)
	})
}

// serve applies every received membership LSA and recomputes immediately —
// the defining behaviour of the brute-force protocol. Each computation holds
// the switch for the compute time; LSAs arriving meanwhile are served when
// it ends.
func (sw *bswitch) serve() {
	inbox := sw.d.net.Mailbox(sw.id)
	for !sw.computing {
		raw, ok := inbox.TryRecv()
		if !ok {
			return
		}
		del, ok := raw.(flood.Delivery)
		if !ok {
			continue
		}
		m, ok := del.Payload.(membershipLSA)
		if !ok {
			continue
		}
		members := sw.members[m.conn]
		if members == nil {
			members = make(mctree.Members)
			sw.members[m.conn] = members
		}
		if m.join {
			members[m.src] = m.role
		} else {
			delete(members, m.src)
		}
		if len(members) == 0 {
			delete(sw.members, m.conn)
			delete(sw.topology, m.conn)
			continue
		}
		sw.d.metrics.Computations++
		sw.computing = true
		sw.d.k.Schedule(sw.d.computeTime, func() {
			sw.computing = false
			t, err := sw.d.algorithm.Compute(sw.image, mctree.Symmetric, sw.members[m.conn].Clone())
			if err == nil {
				sw.topology[m.conn] = t
				sw.d.metrics.Installs++
			}
			sw.serve()
		})
	}
}

// Package core implements D-GMC, the distributed generic multipoint-
// connection protocol of Huang & McKinley (ICDCS 1996) — the paper's
// primary contribution.
//
// # Protocol overview
//
// D-GMC constructs and maintains multipoint connections (MCs) under
// link-state routing. Membership changes and link/nodal events are flooded
// to all switches as MC LSAs; only the switch that detects an event
// computes a new MC topology, and the resulting proposal rides inside the
// flooded LSA. In the common case each event therefore costs one topology
// computation and one flooding operation network-wide, versus one
// computation per switch for MOSPF-style or brute-force event-driven
// protocols.
//
// Conflicting concurrent events are reconciled with vector timestamps.
// Per MC, every switch keeps three n-component stamps:
//
//   - R (received): R[y] counts events heard from switch y,
//   - E (expected): the componentwise max of R and every LSA timestamp
//     seen — events known to exist somewhere in the network,
//   - C (current): the event set the installed topology is based on.
//
// Two protocol entities run at each switch:
//
//   - EventHandler is invoked for each local event (host join/leave via
//     the ingress switch, or a detected link event) and corresponds to
//     Figure 4 of the paper;
//   - ReceiveLSA drains the switch's LSA mailbox and corresponds to
//     Figure 5.
//
// Both entities may compute and flood a topology proposal, guarded by
// timestamp comparisons and a per-connection makeProposal flag. A proposal
// computed from a stale basis (the R stamp advanced during the
// computation, or LSAs are queued) is withdrawn rather than flooded.
//
// # Mapping to the simulator
//
// Each switch's two entities are receivers on its mailboxes, sharing the
// switch state — the concurrency model of the paper, where timestamp
// accesses are atomic between the two entities. Every event runs to its
// end, so the entities interleave only across topology computations: an
// entity that begins one completes it Tc of virtual time later, and
// whatever the other entity does meanwhile is what the paper's old_R
// checks exist for. Flooding is provided by internal/flood.
//
// # The machine and its hosts
//
// Machine is one switch's protocol with no I/O. Its entry points take what
// they need to know as arguments and append what they need done — floods,
// unicasts, timers, self-nudges, install and forwarding notices, trace
// records — to an effect list (see Effect) that the host drains after each
// call: Switch in the simulator, internal/rt's Node live, and
// internal/explore's World in the model checker.
//
// The protocol is independent of the topology-computation algorithm
// (internal/route) and serves symmetric, receiver-only, and asymmetric MCs
// with the same code.
package core

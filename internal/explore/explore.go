// Package explore is a systematic schedule-exploration harness — an
// implementation-level model checker — for the D-GMC state machine.
//
// It drives the production state machine itself: a set of core.Machine
// instances, one per switch, whose every runtime effect (flooding, unicast
// resync, timers, self-nudges, topology computations) becomes a *pending
// action* instead of being executed at some fixed time. The set of
// pending actions at a world state is the set of schedule choice points:
//
//   - injecting the next scenario event at a switch (events at different
//     switches interleave freely; events at one switch keep program order),
//   - delivering any one in-flight advertisement or resync message to its
//     destination — in any order, which subsumes every fabric reordering,
//   - dropping or duplicating an in-flight message (a faults.Choice
//     branched deterministically, within a configured budget, instead of
//     drawn from an RNG as internal/faults does),
//   - firing an armed resync timer,
//   - completing a topology computation an entity has begun (within
//     Config.MaxComputes; see below).
//
// Exhaustive search (depth-first over world states, deduplicated by a
// canonical state hash) visits every reachable interleaving up to the
// state bound; seeded random walks sample unboundedly deep schedules.
// Invariants are checked after every transition and at every quiescent
// state; a violation yields a schedule that replays byte-for-byte (see
// Token) and shrinks to a minimal counterexample (see Shrink).
//
// The duration of a topology computation is a choice point within a budget:
// the first Config.MaxComputes computations a schedule begins stay pending
// (core.Machine.BeginLocalEvent / BeginReceive), and completing one
// (Complete) is an action like any other, so anything else can be scheduled
// inside the paper's Tc window — the schedules Figure 4 line 6 and Figure 5
// line 22 ask "is R still old_R?" for. While EventHandler computes, the
// switch's further injects wait; while ReceiveLSA computes, deliveries to
// the switch wait in flight (where the completion's "still queued?" answer
// sees them, and faults can still hit them). Computations begun after the
// budget is spent complete inside the action that begins them, as every one
// does at the default of 0.
package explore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dgmc/internal/core"
	"dgmc/internal/faults"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// Config describes the system under exploration.
type Config struct {
	// Graph is the network topology. Required, and must be connected.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH{}). Replay
	// tokens store it by name, so it must be one of the route.ByName set.
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// Resync enables the gap-recovery machinery; armed timers become
	// schedule choice points. Required when MaxDrops > 0 (without it, a
	// dropped LSA makes divergence a modeling artifact, not a bug).
	Resync bool
	// ResyncMaxRounds bounds resync requests per connection per gap
	// (default 8 — small state spaces want small budgets).
	ResyncMaxRounds int
	// MaxDrops and MaxDups budget the faults.Drop / faults.Dup outcomes
	// the explorer may choose across one schedule. Zero disables the
	// corresponding branch.
	MaxDrops int
	MaxDups  int
	// MaxComputes budgets the topology computations left pending across one
	// schedule: the first MaxComputes it begins complete as actions of their
	// own. Zero makes every machine call atomic.
	MaxComputes int
	// Mutation seeds a known protocol bug (checker self-validation).
	Mutation core.Mutation
}

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("explore: Config.Graph is required")
	}
	if !c.Graph.Connected() {
		return fmt.Errorf("explore: initial topology must be connected")
	}
	if c.Algorithm == nil {
		c.Algorithm = route.SPH{}
	}
	if c.ResyncMaxRounds < 0 {
		return fmt.Errorf("explore: negative resync round limit %d", c.ResyncMaxRounds)
	}
	if c.ResyncMaxRounds == 0 {
		c.ResyncMaxRounds = 8
	}
	if c.MaxDrops < 0 || c.MaxDups < 0 {
		return fmt.Errorf("explore: negative fault budget (drops=%d dups=%d)", c.MaxDrops, c.MaxDups)
	}
	if c.MaxComputes < 0 {
		return fmt.Errorf("explore: negative compute budget %d", c.MaxComputes)
	}
	if c.MaxDrops > 0 && !c.Resync {
		return fmt.Errorf("explore: MaxDrops > 0 requires Resync (the paper assumes reliable flooding; without gap recovery a dropped LSA diverges by construction)")
	}
	if !c.Mutation.Valid() {
		return fmt.Errorf("explore: unknown mutation %d", c.Mutation)
	}
	return nil
}

// Inject is one scenario event: a local event handed to a switch's
// EventHandler. Events listed for the same switch fire in list order;
// events at different switches are concurrent (all interleavings explored).
type Inject struct {
	Switch topo.SwitchID
	Event  core.LocalEvent
}

// Scenario is the workload to explore.
type Scenario struct {
	Injects []Inject
	// Faults is the ordered fault lane: partition, heal, crash, restart and
	// log-compaction operations that fire in list order, each interleaving freely
	// with everything else (see faultops.go). Requires Config.Resync —
	// partition and crash recovery are resync machinery.
	Faults []FaultOp
}

func (s *Scenario) validate(g *topo.Graph) error {
	n := g.NumSwitches()
	for i, inj := range s.Injects {
		if inj.Switch < 0 || int(inj.Switch) >= n {
			return fmt.Errorf("explore: inject %d: switch %d out of range [0,%d)", i, inj.Switch, n)
		}
		switch inj.Event.Kind {
		case lsa.Join:
			if inj.Event.Role == 0 {
				return fmt.Errorf("explore: inject %d: join without role", i)
			}
		case lsa.Leave:
		case lsa.Link:
			if _, ok := g.Link(inj.Event.Link.A, inj.Event.Link.B); !ok {
				return fmt.Errorf("explore: inject %d: no link (%d,%d)", i, inj.Event.Link.A, inj.Event.Link.B)
			}
			if inj.Event.Link.A != inj.Switch && inj.Event.Link.B != inj.Switch {
				return fmt.Errorf("explore: inject %d: link event (%d,%d) not incident to detecting switch %d",
					i, inj.Event.Link.A, inj.Event.Link.B, inj.Switch)
			}
		default:
			return fmt.Errorf("explore: inject %d: invalid event kind %d", i, inj.Event.Kind)
		}
	}
	return validateFaults(s.Faults, g)
}

// pendingMsg is one in-flight message: a flooded LSA copy addressed to one
// destination, a unicast resync message, or a self-addressed nudge.
type pendingMsg struct {
	id       int
	to       topo.SwitchID
	origin   topo.SwitchID
	payload  any
	duped    bool // already split once; no further Dup branch
	internal bool // self-nudge: not subject to network faults
}

// timer is an armed resync gap-check at one switch.
type timer struct {
	sw   topo.SwitchID
	conn lsa.ConnID
}

// actionKind discriminates the schedule choice points.
type actionKind uint8

const (
	actInject actionKind = iota
	actDeliver
	actDrop
	actDup
	actFire
	actFault
	actComplete
)

// entities lists a switch's protocol entities in canonical order.
var entities = [...]core.Entity{core.EventHandler, core.ReceiveLSA}

// action is one enabled transition of a world state.
type action struct {
	kind  actionKind
	sw    topo.SwitchID // actInject, actComplete
	ent   core.Entity   // actComplete
	msg   int           // actDeliver/actDrop/actDup: index into pending
	timer int           // actFire: index into timers
	key   []byte        // canonical sort key
}

// World is one global state of the system under exploration: every
// machine's protocol state, the fabric graph, and the pending action set.
// Worlds are cloned to branch at choice points. A clone shares what it has
// not written: the spec, the graph, the crash high-water marks and every
// machine until an action writes it (see mine).
type World struct {
	*spec

	// graph is shared with clones: a link change replaces it (act).
	graph *topo.Graph
	slots []slot

	// injectPos[s] is the next of injectsBySwitch[s] to fire.
	injectPos []int

	pending []pendingMsg
	// held parks frames sent across an active partition: the transport's
	// forwarding/retry machinery would deliver them once connectivity
	// returns, so a heal releases them back into pending (see faultops.go).
	// Non-empty only while a split is active.
	held      []pendingMsg
	timers    []timer
	dropsLeft int
	dupsLeft  int
	// computesLeft is what remains of Config.MaxComputes.
	computesLeft int
	nextMsgID    int
	installs     int

	// faultPos is the next fault-lane operation to fire; lanes[faultPos] is
	// the lane's state (see faultops.go). ownHigh[conn][x] records the most
	// events origin x had issued at any crash of x — the origin-authority
	// bound must survive the origin forgetting its own counter. Clones share
	// it: a crash, its one writer, replaces it.
	faultPos int
	ownHigh  map[lsa.ConnID][]uint32

	// exchangeErr is the verdict of checkExchange on the transition that
	// produced this world (checkStep reports it); clones start without one.
	exchangeErr error

	tracing bool
	trace   []string
}

// spec is what every world of one scenario shares and none writes.
type spec struct {
	cfg Config
	scn Scenario
	n   int
	// injectsBySwitch[s] indexes scn.Injects in program order for switch s.
	injectsBySwitch [][]int
	// lanes[k] is the fault lane's state after its first k operations.
	lanes []lane
}

// slot is one switch's machine in a world.
type slot struct {
	m *core.Machine
	// owned reports that no other world holds m, so an action may write it
	// in place.
	owned bool
	// digest is the SHA-256 of m's AppendState, valid while hashed is set.
	digest [32]byte
	hashed bool
}

// NewWorld builds the initial world state for (cfg, scn).
func NewWorld(cfg Config, scn Scenario) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := scn.validate(cfg.Graph); err != nil {
		return nil, err
	}
	if len(scn.Faults) > 0 && !cfg.Resync {
		return nil, fmt.Errorf("explore: fault operations require Resync (partition and crash recovery are resync machinery)")
	}
	n := cfg.Graph.NumSwitches()
	sp := &spec{cfg: cfg, scn: scn, n: n, injectsBySwitch: make([][]int, n), lanes: laneTable(scn.Faults, n)}
	for i, inj := range scn.Injects {
		sp.injectsBySwitch[inj.Switch] = append(sp.injectsBySwitch[inj.Switch], i)
	}
	w := &World{
		spec:         sp,
		graph:        cfg.Graph.Clone(),
		slots:        make([]slot, n),
		injectPos:    make([]int, n),
		dropsLeft:    cfg.MaxDrops,
		dupsLeft:     cfg.MaxDups,
		computesLeft: cfg.MaxComputes,
		ownHigh:      make(map[lsa.ConnID][]uint32),
	}
	for i := range w.slots {
		m, err := w.blankMachine(topo.SwitchID(i))
		if err != nil {
			return nil, err
		}
		w.slots[i] = slot{m: m, owned: true}
	}
	return w, nil
}

// blankMachine returns switch s's machine as it boots.
func (w *World) blankMachine(s topo.SwitchID) (*core.Machine, error) {
	return core.NewMachine(core.MachineConfig{
		ID:              s,
		Graph:           w.cfg.Graph,
		Algorithm:       w.cfg.Algorithm,
		Kinds:           w.cfg.Kinds,
		Resync:          w.cfg.Resync,
		ResyncMaxRounds: w.cfg.ResyncMaxRounds,
		Mutation:        w.cfg.Mutation,
	}, nil)
}

// clone branches the world. The clone shares every machine with w, and
// both now copy one before writing it (mine). Traces are not inherited:
// clones explore silently, and violating schedules are replayed with
// tracing on.
func (w *World) clone() *World {
	for i := range w.slots {
		w.slots[i].owned = false
	}
	return &World{
		spec:         w.spec,
		graph:        w.graph,
		slots:        slices.Clone(w.slots),
		injectPos:    slices.Clone(w.injectPos),
		pending:      slices.Clone(w.pending),
		held:         slices.Clone(w.held),
		timers:       slices.Clone(w.timers),
		dropsLeft:    w.dropsLeft,
		dupsLeft:     w.dupsLeft,
		computesLeft: w.computesLeft,
		nextMsgID:    w.nextMsgID,
		installs:     w.installs,
		faultPos:     w.faultPos,
		ownHigh:      w.ownHigh,
	}
}

// mine returns switch s's machine for an action to write: a copy of its
// own if another world shares it. The machine's cached digest is dropped.
func (w *World) mine(s topo.SwitchID) *core.Machine {
	sl := &w.slots[s]
	if !sl.owned {
		sl.m, sl.owned = sl.m.Clone(), true
	}
	sl.hashed = false
	return sl.m
}

// lane returns the fault lane's state at w's position in it.
func (w *World) lane() *lane { return &w.lanes[w.faultPos] }

// appendPayload appends a canonical rendering of a pending payload to buf
// (for sort keys and state hashing). Every payload the harness enqueues is
// covered.
func appendPayload(buf []byte, p any) []byte {
	switch v := p.(type) {
	case *lsa.MC:
		return v.AppendMarshal(append(buf, 'M'))
	case *lsa.NonMC:
		return v.AppendMarshal(append(buf, 'L'))
	case *lsa.ResyncRequest:
		return v.AppendMarshal(append(buf, 'R'))
	case *lsa.ResyncResponse:
		return v.AppendMarshal(append(buf, 'S'))
	case core.ResyncNudge:
		return binary.BigEndian.AppendUint32(append(buf, 'N'), uint32(v.Conn))
	default:
		return append(buf, '?')
	}
}

func (w *World) msgKey(kind byte, pm *pendingMsg) []byte {
	key := []byte{kind}
	key = binary.BigEndian.AppendUint32(key, uint32(int32(pm.to)))
	key = appendPayload(key, pm.payload)
	// Tie-break identical messages (dup copies) by creation order so the
	// enumeration is a total order.
	key = binary.BigEndian.AppendUint32(key, uint32(pm.id))
	return key
}

// enabled enumerates the world's enabled actions in a canonical, replay-
// stable order: completions by switch and entity, then per-message outcome
// branches (deliver, then drop, then dup — the faults.Outcomes order), then
// timers, then injects by switch, then the fault lane.
func (w *World) enabled() []action {
	// Completions lead, and key leading bytes order the rest of the
	// canonical enumeration: deliveries (0) before faults (1, 2) before
	// timers (3) before injects (4). Choice 0 therefore finishes what a
	// switch is computing and drains in-flight traffic before injecting
	// further events, so the all-zero schedule degrades to fault-free,
	// near-sequential execution — the natural base case for shrinking.
	var out []action
	for s, sl := range w.slots {
		for _, e := range entities {
			if sl.m.Computing(e) {
				out = append(out, action{kind: actComplete, sw: topo.SwitchID(s), ent: e})
			}
		}
	}
	completions := len(out)
	for i := range w.pending {
		pm := &w.pending[i]
		// A switch whose ReceiveLSA is computing consumes nothing: copies
		// addressed to it stay in flight, where a fault can still hit them.
		busy := w.slots[pm.to].m.Computing(core.ReceiveLSA)
		for _, o := range faults.Choices(
			!pm.internal && w.dropsLeft > 0,
			!pm.internal && w.dupsLeft > 0 && !pm.duped,
		) {
			switch o {
			case faults.Deliver:
				if busy {
					continue
				}
				out = append(out, action{kind: actDeliver, msg: i, key: w.msgKey(0, pm)})
			case faults.Drop:
				out = append(out, action{kind: actDrop, msg: i, key: w.msgKey(1, pm)})
			case faults.Dup:
				out = append(out, action{kind: actDup, msg: i, key: w.msgKey(2, pm)})
			}
		}
	}
	for i, t := range w.timers {
		key := binary.BigEndian.AppendUint32([]byte{3}, uint32(int32(t.sw)))
		key = binary.BigEndian.AppendUint32(key, uint32(t.conn))
		key = binary.BigEndian.AppendUint32(key, uint32(i))
		out = append(out, action{kind: actFire, timer: i, key: key})
	}
	for s := 0; s < w.n; s++ {
		// A dead switch accepts no local events; its remaining injects
		// resume after the restart (the fault lane guarantees one comes).
		// Nor does one whose EventHandler is still computing.
		if w.injectPos[s] < len(w.injectsBySwitch[s]) && !w.lane().dead[s] && !w.slots[s].m.Computing(core.EventHandler) {
			key := binary.BigEndian.AppendUint32([]byte{4}, uint32(s))
			out = append(out, action{kind: actInject, sw: topo.SwitchID(s), key: key})
		}
	}
	if w.faultPos < len(w.scn.Faults) {
		out = append(out, action{kind: actFault, key: []byte{5}})
	}
	rest := out[completions:]
	sort.Slice(rest, func(i, j int) bool {
		a, b := rest[i].key, rest[j].key
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// describe renders an action for counterexample traces.
func (w *World) describe(a action) string {
	switch a.kind {
	case actInject:
		idx := w.injectsBySwitch[a.sw][w.injectPos[a.sw]]
		inj := w.scn.Injects[idx]
		if inj.Event.Kind == lsa.Link {
			return fmt.Sprintf("inject %s detected at switch %d", inj.Event.Link, inj.Switch)
		}
		return fmt.Sprintf("inject %s at switch %d (conn %d)", inj.Event.Kind, inj.Switch, inj.Event.Conn)
	case actDeliver:
		pm := w.pending[a.msg]
		return fmt.Sprintf("deliver %s -> switch %d", payloadString(pm.payload), pm.to)
	case actDrop:
		pm := w.pending[a.msg]
		return fmt.Sprintf("drop %s -> switch %d", payloadString(pm.payload), pm.to)
	case actDup:
		pm := w.pending[a.msg]
		return fmt.Sprintf("dup %s -> switch %d", payloadString(pm.payload), pm.to)
	case actFire:
		t := w.timers[a.timer]
		return fmt.Sprintf("fire resync timer at switch %d (conn %d)", t.sw, t.conn)
	case actFault:
		return w.scn.Faults[w.faultPos].String()
	case actComplete:
		return fmt.Sprintf("complete %s computation at switch %d", a.ent, a.sw)
	default:
		return fmt.Sprintf("action(%d)", a.kind)
	}
}

func payloadString(p any) string {
	switch v := p.(type) {
	case *lsa.MC:
		return v.String()
	case *lsa.NonMC:
		return v.String()
	case *lsa.ResyncRequest:
		return fmt.Sprintf("resync-req{conn %d from %d R=%s}", v.Conn, v.From, v.R)
	case *lsa.ResyncResponse:
		return fmt.Sprintf("resync-resp{conn %d from %d, %d LSAs}", v.Conn, v.From, len(v.Batch))
	case core.ResyncNudge:
		return fmt.Sprintf("self-nudge{conn %d}", v.Conn)
	default:
		return fmt.Sprintf("%v", p)
	}
}

// applyIndex resolves the i-th enabled action (clamped, so every integer
// is a valid choice — the property Shrink and random walks rely on) and
// applies it. It reports the applied action and false when the world is
// quiescent (nothing enabled).
func (w *World) applyIndex(i int) (action, bool) {
	acts := w.enabled()
	if len(acts) == 0 {
		return action{}, false
	}
	a := acts[((i%len(acts))+len(acts))%len(acts)]
	if w.tracing {
		w.trace = append(w.trace, fmt.Sprintf("step %3d: %s", len(w.trace), w.describe(a)))
	}
	w.apply(a)
	return a, true
}

func (w *World) apply(a action) {
	w.exchangeErr = nil
	switch a.kind {
	case actInject:
		idx := w.injectsBySwitch[a.sw][w.injectPos[a.sw]]
		w.injectPos[a.sw]++
		inj := w.scn.Injects[idx]
		w.act(a.sw, func(m *core.Machine) { w.settle(a.sw, core.EventHandler, m.BeginLocalEvent(inj.Event)) })
	case actDeliver:
		pm := w.pending[a.msg]
		w.removePending(a.msg)
		if req, ok := pm.payload.(*lsa.ResyncRequest); ok {
			w.exchangeErr = w.checkExchange(pm.to, req)
		}
		w.act(pm.to, func(m *core.Machine) { w.settle(pm.to, core.ReceiveLSA, m.BeginReceive([]any{pm.payload})) })
	case actDrop:
		w.removePending(a.msg)
		w.dropsLeft--
	case actDup:
		w.pending[a.msg].duped = true
		cp := w.pending[a.msg]
		cp.id = w.nextMsgID
		w.nextMsgID++
		w.pending = append(w.pending, cp)
		w.dupsLeft--
	case actFire:
		t := w.timers[a.timer]
		w.timers = append(w.timers[:a.timer], w.timers[a.timer+1:]...)
		w.act(t.sw, func(m *core.Machine) { m.ResyncFired(t.conn, w.graph.Neighbors(t.sw)) })
	case actFault:
		w.applyFault()
	case actComplete:
		w.act(a.sw, func(*core.Machine) { w.settle(a.sw, a.ent, w.complete(a.sw, a.ent)) })
	}
}

// settle decides what becomes of the computation a machine call stopped at,
// if it did: within the compute budget it stays pending, beyond it this one
// and every further one the call goes on to begin complete here.
func (w *World) settle(sw topo.SwitchID, e core.Entity, pending bool) {
	for pending && w.computesLeft == 0 {
		pending = w.complete(sw, e)
	}
	if pending {
		w.computesLeft--
	}
}

// complete finishes switch sw's pending e computation. An MC LSA for its
// connection in flight to sw is what Figure 5 line 22 sees as queued.
func (w *World) complete(sw topo.SwitchID, e core.Entity) bool {
	m := w.slots[sw].m
	conn := m.ComputingConn(e)
	queued := e == core.ReceiveLSA && slices.ContainsFunc(w.pending, func(pm pendingMsg) bool {
		mc, ok := pm.payload.(*lsa.MC)
		return ok && pm.to == sw && mc.Conn == conn
	})
	return m.Complete(e, queued)
}

func (w *World) removePending(i int) {
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
}

// Quiescent reports whether no action is enabled.
func (w *World) Quiescent() bool { return len(w.enabled()) == 0 }

// Machine returns switch s's machine (read-only inspection).
func (w *World) Machine(s topo.SwitchID) *core.Machine { return w.slots[s].m }

// Trace returns the recorded trace (tracing worlds only).
func (w *World) Trace() []string { return w.trace }

// hash returns the canonical state digest used for search deduplication
// (see hasher.sum), through buffers of its own.
func (w *World) hash() [32]byte {
	var h hasher
	return h.sum(w)
}

// hasher computes state digests through buffers it keeps from one call to
// the next: a search hashes every state it reaches, and one hasher serves
// it throughout.
type hasher struct {
	state []byte   // one machine's encoding
	buf   []byte   // the state encoding
	msgs  []byte   // the pending messages' encodings, back to back
	spans [][2]int // each encoding's [start, end) in msgs
	ts    []timer
}

// sum returns w's canonical state digest. It covers each machine's digest,
// which the slot keeps until the machine is written, so hashing a child
// encodes only the machines its action wrote. In-flight messages hash as a
// multiset (two interleavings that produced the same pending messages in
// different orders are the same state).
func (h *hasher) sum(w *World) [32]byte {
	buf := h.buf[:0]
	for i := range w.slots {
		sl := &w.slots[i]
		if !sl.hashed {
			h.state = sl.m.AppendState(h.state[:0])
			sl.digest, sl.hashed = sha256.Sum256(h.state), true
		}
		buf = append(buf, sl.digest[:]...)
	}
	for i := 0; i < w.graph.NumLinks(); i++ {
		buf = appendFlag(buf, w.graph.LinkAt(i).Down)
	}
	buf = h.appendMsgMultiset(buf, w.pending)
	buf = h.appendMsgMultiset(buf, w.held)
	ts := append(h.ts[:0], w.timers...)
	slices.SortFunc(ts, func(a, b timer) int {
		if a.sw != b.sw {
			return cmp.Compare(a.sw, b.sw)
		}
		return cmp.Compare(a.conn, b.conn)
	})
	h.ts = ts
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ts)))
	for _, t := range ts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(t.sw)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.conn))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.dropsLeft))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.dupsLeft))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.computesLeft))
	for _, p := range w.injectPos {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	// The fault lane is sequential, so its state is a function of
	// faultPos; hashing the position covers it. (ownHigh is
	// path-dependent but only relaxes an invariant bound — excluding it
	// from dedup at worst re-checks a state against a looser bound.)
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.faultPos))
	h.buf = buf
	return sha256.Sum256(buf)
}

func appendFlag(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendMsgMultiset appends msgs to buf as an order-independent multiset
// (two interleavings that produced the same messages in different orders
// hash identically): each message's encoding, length-prefixed, in
// ascending byte order.
func (h *hasher) appendMsgMultiset(buf []byte, msgs []pendingMsg) []byte {
	enc, spans := h.msgs[:0], h.spans[:0]
	for i := range msgs {
		pm := &msgs[i]
		start := len(enc)
		enc = binary.BigEndian.AppendUint32(enc, uint32(int32(pm.to)))
		enc = appendFlag(enc, pm.duped)
		enc = appendFlag(enc, pm.internal)
		enc = appendPayload(enc, pm.payload)
		spans = append(spans, [2]int{start, len(enc)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(enc[a[0]:a[1]], enc[b[0]:b[1]])
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(spans)))
	for _, sp := range spans {
		buf = binary.BigEndian.AppendUint32(buf, uint32(sp[1]-sp[0]))
		buf = append(buf, enc[sp[0]:sp[1]]...)
	}
	h.msgs, h.spans = enc, spans
	return buf
}

// effectArrays lends a machine the array it appends effects to for one
// act, so the machines of the world clones a search makes keep none.
var effectArrays = sync.Pool{New: func() any { return new([]core.Effect) }}

// act runs call on switch s's machine and turns, in order, what it asked
// for into pending actions. The checker explores control-plane
// interleavings only: there is no FIB to recompile, so forwarding changes
// need nothing.
func (w *World) act(s topo.SwitchID, call func(*core.Machine)) {
	m := w.mine(s)
	lent := effectArrays.Get().(*[]core.Effect)
	m.SwapEffects(*lent)
	call(m)
	for _, e := range m.Effects() {
		switch e.Kind {
		case core.EffectFloodMC:
			w.flood(s, e.MC)
		case core.EffectFloodNonMC:
			w.flood(s, e.NonMC)
		case core.EffectUnicast:
			w.unicast(s, e.To, e.Payload)
		case core.EffectArmResync:
			w.timers = append(w.timers, timer{sw: s, conn: e.Conn})
		case core.EffectSelfNudge:
			// Exempt from network faults.
			w.pending = append(w.pending, pendingMsg{
				id: w.nextMsgID, to: s, origin: s,
				payload: core.ResyncNudge{Conn: e.Conn}, internal: true,
			})
			w.nextMsgID++
		case core.EffectNoteInstall:
			w.installs++
		case core.EffectFabricLinkChanged:
			// Clones share the graph, so the change is made to a copy.
			g := w.graph.Clone()
			if err := g.SetLinkDown(e.Link.A, e.Link.B, e.Link.Down); err != nil && w.tracing {
				w.trace = append(w.trace, fmt.Sprintf("  [%d] fabric: %v", s, err))
			}
			w.graph = g
		case core.EffectTrace:
			if w.tracing {
				r := &e.Trace
				w.trace = append(w.trace, fmt.Sprintf("  [switch %d conn %d chain %s] %s: %s", s, r.Conn, r.Chain, r.Kind, r.Detail()))
			}
		}
	}
	*lent = m.SwapEffects(nil)
	effectArrays.Put(lent)
}

// flood leaves one pending delivery per switch currently reachable from
// src, in switch order (flooding cannot cross failed links).
func (w *World) flood(src topo.SwitchID, payload any) {
	sc := topo.AcquireSSSP()
	defer topo.ReleaseSSSP(sc)
	for dst, reached := range w.graph.Reach(sc, src) {
		if reached && topo.SwitchID(dst) != src {
			w.send(src, topo.SwitchID(dst), payload)
		}
	}
}

// unicast leaves a message from src in flight to to. Unreachable
// destinations swallow it, like a fabric with no route.
func (w *World) unicast(src, to topo.SwitchID, payload any) {
	sc := topo.AcquireSSSP()
	reached := w.graph.Reach(sc, src)[to]
	topo.ReleaseSSSP(sc)
	if reached {
		w.send(src, to, payload)
	}
}

// send leaves one message from src in flight to dst. Copies to a dead
// switch are lost with it. Cross-partition messages are parked until the
// heal: under hop-by-hop flooding a frame reaches the boundary and is
// forwarded onward once connectivity returns (see faultops.go).
func (w *World) send(src, dst topo.SwitchID, payload any) {
	if w.lane().dead[dst] {
		return
	}
	pm := pendingMsg{id: w.nextMsgID, to: dst, origin: src, payload: payload}
	w.nextMsgID++
	if w.partitioned(src, dst) {
		w.held = append(w.held, pm)
	} else {
		w.pending = append(w.pending, pm)
	}
}

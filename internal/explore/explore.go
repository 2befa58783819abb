// Package explore is a systematic schedule-exploration harness — an
// implementation-level model checker — for the D-GMC state machine.
//
// It drives the production state machine itself: a set of core.Machine
// instances, one per switch, whose every runtime effect (flooding, unicast
// resync, timers, self-nudges, topology computations) is captured as a
// *pending action* instead of being executed at some fixed time. The set of
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
// Exhaustive search (BFS over world states, deduplicated by a canonical
// state hash) visits every reachable interleaving up to the configured
// bounds; seeded random walks sample unboundedly deep schedules. Invariants
// are checked after every transition and at every quiescent state; a
// violation yields a schedule that replays byte-for-byte (see Token) and
// shrinks to a minimal counterexample (see Shrink).
//
// The duration of a topology computation is a choice point within a budget:
// the first Config.MaxComputes computations a schedule begins stay pending
// (core.Machine.BeginLocalEvent / BeginReceive), and completing one
// (Complete) is an action like any other, so anything else can be scheduled
// inside the paper's Tc window — the schedules Figure 4 line 6 and Figure 5
// line 22 ask "is R still old_R?" for. While EventHandler computes, the
// switch's further injects wait; while ReceiveLSA computes, deliveries to
// the switch wait in flight (where Host.PendingMC sees them, and faults can
// still hit them). Computations begun after the budget is spent complete
// inside the action that begins them, as every one does at the default of 0.
package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

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
// machine's protocol state, the shared fabric graph, and the pending
// action set. Worlds are cloned to branch at choice points.
type World struct {
	cfg Config
	scn Scenario
	n   int

	graph    *topo.Graph
	machines []*core.Machine

	// injectsBySwitch[s] indexes scn.Injects in program order for switch
	// s; injectPos[s] is the next one to fire.
	injectsBySwitch [][]int
	injectPos       []int

	// injectedMembership counts fired Join/Leave injects per connection
	// per originating switch (ground truth for event conservation).
	injectedMembership map[lsa.ConnID][]int

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

	// Fault-lane state (see faultops.go). side is nil when no partition is
	// active, else side[s] is s's group. ownHigh[conn][x] records the most
	// events origin x had issued at any crash of x — the origin-authority
	// bound must survive the origin forgetting its own counter. crashedEver
	// switches every quiescent check to the lossy standard; crashedOnce
	// waives event conservation per switch.
	faultPos    int
	side        []int
	crashed     []bool
	crashedOnce []bool
	crashedEver bool
	ownHigh     map[lsa.ConnID][]uint32

	// exchangeErr is the verdict of checkExchange on the transition that
	// produced this world (checkStep reports it); clones start without one.
	exchangeErr error

	tracing bool
	trace   []string
}

// worldHost adapts one machine's runtime effects into pending actions. The
// checker explores control-plane interleavings only: there is no FIB to
// recompile, so ForwardingChanged stays NopHost's.
type worldHost struct {
	core.NopHost
	w  *World
	id topo.SwitchID
}

var _ core.Host = (*worldHost)(nil)

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
	w := &World{
		cfg:                cfg,
		scn:                scn,
		n:                  n,
		graph:              cfg.Graph.Clone(),
		machines:           make([]*core.Machine, n),
		injectsBySwitch:    make([][]int, n),
		injectPos:          make([]int, n),
		injectedMembership: make(map[lsa.ConnID][]int),
		dropsLeft:          cfg.MaxDrops,
		dupsLeft:           cfg.MaxDups,
		computesLeft:       cfg.MaxComputes,
		crashed:            make([]bool, n),
		crashedOnce:        make([]bool, n),
		ownHigh:            make(map[lsa.ConnID][]uint32),
	}
	for i, inj := range scn.Injects {
		w.injectsBySwitch[inj.Switch] = append(w.injectsBySwitch[inj.Switch], i)
	}
	for i := 0; i < n; i++ {
		m, err := core.NewMachine(core.MachineConfig{
			ID:              topo.SwitchID(i),
			Graph:           cfg.Graph,
			Algorithm:       cfg.Algorithm,
			Kinds:           cfg.Kinds,
			Resync:          cfg.Resync,
			ResyncMaxRounds: cfg.ResyncMaxRounds,
			Mutation:        cfg.Mutation,
		}, &worldHost{w: w, id: topo.SwitchID(i)})
		if err != nil {
			return nil, err
		}
		w.machines[i] = m
	}
	return w, nil
}

// clone branches the world. Traces are not inherited: clones explore
// silently, and violating schedules are replayed with tracing on.
func (w *World) clone() *World {
	c := &World{
		cfg:             w.cfg,
		scn:             w.scn,
		n:               w.n,
		graph:           w.graph.Clone(),
		machines:        make([]*core.Machine, w.n),
		injectsBySwitch: w.injectsBySwitch, // immutable after NewWorld
		injectPos:       append([]int(nil), w.injectPos...),
		pending:         append([]pendingMsg(nil), w.pending...),
		held:            append([]pendingMsg(nil), w.held...),
		timers:          append([]timer(nil), w.timers...),
		dropsLeft:       w.dropsLeft,
		dupsLeft:        w.dupsLeft,
		computesLeft:    w.computesLeft,
		nextMsgID:       w.nextMsgID,
		installs:        w.installs,
		faultPos:        w.faultPos,
		crashed:         append([]bool(nil), w.crashed...),
		crashedOnce:     append([]bool(nil), w.crashedOnce...),
		crashedEver:     w.crashedEver,
	}
	if w.side != nil {
		c.side = append([]int(nil), w.side...)
	}
	c.ownHigh = make(map[lsa.ConnID][]uint32, len(w.ownHigh))
	for conn, hw := range w.ownHigh {
		c.ownHigh[conn] = append([]uint32(nil), hw...)
	}
	c.injectedMembership = make(map[lsa.ConnID][]int, len(w.injectedMembership))
	for conn, counts := range w.injectedMembership {
		c.injectedMembership[conn] = append([]int(nil), counts...)
	}
	for i, m := range w.machines {
		c.machines[i] = m.CloneWith(&worldHost{w: c, id: topo.SwitchID(i)})
	}
	return c
}

// encodePayload renders a pending payload canonically (for sort keys and
// state hashing). Every payload the harness enqueues is covered.
func encodePayload(p any) []byte {
	switch v := p.(type) {
	case *lsa.MC:
		return append([]byte{'M'}, v.Marshal()...)
	case *lsa.NonMC:
		return append([]byte{'L'}, v.Marshal()...)
	case *lsa.ResyncRequest:
		return append([]byte{'R'}, v.Marshal()...)
	case *lsa.ResyncResponse:
		return append([]byte{'S'}, v.Marshal()...)
	case core.ResyncNudge:
		return binary.BigEndian.AppendUint32([]byte{'N'}, uint32(v.Conn))
	default:
		return []byte{'?'}
	}
}

func (w *World) msgKey(kind byte, pm *pendingMsg) []byte {
	key := []byte{kind}
	key = binary.BigEndian.AppendUint32(key, uint32(int32(pm.to)))
	key = append(key, encodePayload(pm.payload)...)
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
	for s, m := range w.machines {
		for _, e := range entities {
			if m.Computing(e) {
				out = append(out, action{kind: actComplete, sw: topo.SwitchID(s), ent: e})
			}
		}
	}
	completions := len(out)
	for i := range w.pending {
		pm := &w.pending[i]
		// A switch whose ReceiveLSA is computing consumes nothing: copies
		// addressed to it stay in flight, where a fault can still hit them.
		busy := w.machines[pm.to].Computing(core.ReceiveLSA)
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
		if w.injectPos[s] < len(w.injectsBySwitch[s]) && !w.crashed[s] && !w.machines[s].Computing(core.EventHandler) {
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
		if inj.Event.Kind == lsa.Join || inj.Event.Kind == lsa.Leave {
			counts := w.injectedMembership[inj.Event.Conn]
			if counts == nil {
				counts = make([]int, w.n)
				w.injectedMembership[inj.Event.Conn] = counts
			}
			counts[inj.Switch]++
		}
		w.settle(a.sw, core.EventHandler, w.machines[a.sw].BeginLocalEvent(inj.Event))
	case actDeliver:
		pm := w.pending[a.msg]
		w.removePending(a.msg)
		if req, ok := pm.payload.(*lsa.ResyncRequest); ok {
			w.exchangeErr = w.checkExchange(pm.to, req)
		}
		w.settle(pm.to, core.ReceiveLSA, w.machines[pm.to].BeginReceive([]any{pm.payload}))
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
		w.machines[t.sw].ResyncFired(t.conn)
	case actFault:
		w.applyFault()
	case actComplete:
		w.settle(a.sw, a.ent, w.machines[a.sw].Complete(a.ent))
	}
}

// settle decides what becomes of the computation a machine call stopped at,
// if it did: within the compute budget it stays pending, beyond it this one
// and every further one the call goes on to begin complete here.
func (w *World) settle(sw topo.SwitchID, e core.Entity, pending bool) {
	for pending {
		if w.computesLeft > 0 {
			w.computesLeft--
			return
		}
		pending = w.machines[sw].Complete(e)
	}
}

func (w *World) removePending(i int) {
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
}

// Quiescent reports whether no action is enabled.
func (w *World) Quiescent() bool { return len(w.enabled()) == 0 }

// Machine returns switch s's machine (read-only inspection).
func (w *World) Machine(s topo.SwitchID) *core.Machine { return w.machines[s] }

// Trace returns the recorded trace (tracing worlds only).
func (w *World) Trace() []string { return w.trace }

// hash returns the canonical state digest used for search deduplication.
// In-flight messages hash as a multiset (two interleavings that produced
// the same pending messages in different orders are the same state).
func (w *World) hash() [32]byte {
	var buf []byte
	for _, m := range w.machines {
		buf = m.AppendState(buf)
	}
	for _, l := range w.graph.Links() {
		if l.Down {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = appendMsgMultiset(buf, w.pending)
	buf = appendMsgMultiset(buf, w.held)
	ts := append([]timer(nil), w.timers...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].sw != ts[j].sw {
			return ts[i].sw < ts[j].sw
		}
		return ts[i].conn < ts[j].conn
	})
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
	// The fault lane is sequential, so side/crashed/crashedOnce are pure
	// functions of faultPos; hashing the position covers them. (ownHigh is
	// path-dependent but only relaxes an invariant bound — excluding it
	// from dedup at worst re-checks a state against a looser bound.)
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.faultPos))
	return sha256.Sum256(buf)
}

// appendMsgMultiset appends msgs to buf as an order-independent multiset
// (two interleavings that produced the same messages in different orders
// hash identically).
func appendMsgMultiset(buf []byte, msgs []pendingMsg) []byte {
	encs := make([][]byte, 0, len(msgs))
	for i := range msgs {
		pm := &msgs[i]
		enc := binary.BigEndian.AppendUint32(nil, uint32(int32(pm.to)))
		if pm.duped {
			enc = append(enc, 1)
		} else {
			enc = append(enc, 0)
		}
		if pm.internal {
			enc = append(enc, 1)
		} else {
			enc = append(enc, 0)
		}
		enc = append(enc, encodePayload(pm.payload)...)
		encs = append(encs, enc)
	}
	sort.Slice(encs, func(i, j int) bool {
		a, b := encs[i], encs[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(encs)))
	for _, enc := range encs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	return buf
}

// --- Host implementation ---

// FloodMC implements core.Host: one pending delivery per switch currently
// reachable from the origin (flooding cannot cross failed links).
func (h *worldHost) FloodMC(m *lsa.MC) { h.w.flood(h.id, m) }

// FloodNonMC implements core.Host.
func (h *worldHost) FloodNonMC(nm *lsa.NonMC) { h.w.flood(h.id, nm) }

func (w *World) flood(src topo.SwitchID, payload any) {
	comp := append([]topo.SwitchID(nil), w.graph.Component(src)...)
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	for _, dst := range comp {
		if dst == src {
			continue
		}
		// Copies to a dead switch are lost with it. Cross-partition copies
		// are parked until the heal: under hop-by-hop flooding the frame
		// reaches the boundary and is forwarded onward once connectivity
		// returns (see faultops.go).
		if w.crashed[dst] {
			continue
		}
		pm := pendingMsg{id: w.nextMsgID, to: dst, origin: src, payload: payload}
		w.nextMsgID++
		if w.partitioned(src, dst) {
			w.held = append(w.held, pm)
		} else {
			w.pending = append(w.pending, pm)
		}
	}
}

// SendUnicast implements core.Host. Unreachable destinations swallow the
// message, like a fabric with no route.
func (h *worldHost) SendUnicast(to topo.SwitchID, payload any) {
	if h.w.crashed[to] {
		return
	}
	reachable := false
	for _, s := range h.w.graph.Component(h.id) {
		if s == to {
			reachable = true
			break
		}
	}
	if !reachable {
		return
	}
	pm := pendingMsg{id: h.w.nextMsgID, to: to, origin: h.id, payload: payload}
	h.w.nextMsgID++
	// Cross-partition unicasts park until the heal, like flooded copies.
	if h.w.partitioned(h.id, to) {
		h.w.held = append(h.w.held, pm)
	} else {
		h.w.pending = append(h.w.pending, pm)
	}
}

// PendingMC implements core.Host: an MC LSA for conn is "queued" when an
// in-flight flooded copy is addressed to this switch.
func (h *worldHost) PendingMC(conn lsa.ConnID) bool {
	for i := range h.w.pending {
		pm := &h.w.pending[i]
		if pm.to != h.id {
			continue
		}
		if m, ok := pm.payload.(*lsa.MC); ok && m.Conn == conn {
			return true
		}
	}
	return false
}

// Neighbors implements core.Host.
func (h *worldHost) Neighbors() []topo.SwitchID { return h.w.graph.Neighbors(h.id) }

// FabricLinkChanged implements core.Host.
func (h *worldHost) FabricLinkChanged(change lsa.LinkChange) {
	if err := h.w.graph.SetLinkDown(change.A, change.B, change.Down); err != nil && h.w.tracing {
		h.w.trace = append(h.w.trace, fmt.Sprintf("  [%d] fabric: %v", h.id, err))
	}
}

// ArmResync implements core.Host: the firing instant becomes a choice
// point.
func (h *worldHost) ArmResync(conn lsa.ConnID) {
	h.w.timers = append(h.w.timers, timer{sw: h.id, conn: conn})
}

// SelfNudge implements core.Host: a pending self-delivery, exempt from
// network faults.
func (h *worldHost) SelfNudge(conn lsa.ConnID) {
	h.w.pending = append(h.w.pending, pendingMsg{
		id: h.w.nextMsgID, to: h.id, origin: h.id,
		payload: core.ResyncNudge{Conn: conn}, internal: true,
	})
	h.w.nextMsgID++
}

// NoteInstall implements core.Host.
func (h *worldHost) NoteInstall() { h.w.installs++ }

// Trace implements core.Host.
func (h *worldHost) TraceEnabled() bool { return h.w.tracing }

func (h *worldHost) Trace(kind core.TraceKind, chain core.ChainID, conn lsa.ConnID, format string, args ...any) {
	if !h.w.tracing {
		return
	}
	h.w.trace = append(h.w.trace,
		fmt.Sprintf("  [switch %d conn %d chain %s] %s: %s", h.id, conn, chain, kind, fmt.Sprintf(format, args...)))
}

package explore

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// A replay token is a self-contained, URL-safe description of one explored
// schedule: the topology, configuration, scenario, and choice sequence.
// `dgmccheck -replay TOKEN` decodes it and re-executes the schedule
// byte-for-byte — no flags from the original run are needed. The encoding
// is versioned varint/fixed binary under base64url. v2 appends the fault
// lane (partition/heal/crash/restart operations) after the injects, and v3
// the compute budget after the (possibly empty) fault lane; scenarios
// without fault operations still encode as v1 and configurations without a
// compute budget as v1 or v2, so every token this package ever emitted
// keeps replaying.
const (
	tokenPrefix   = "dgmc-sched-v1:"
	tokenPrefixV2 = "dgmc-sched-v2:"
	tokenPrefixV3 = "dgmc-sched-v3:"
)

// tokenAlgName canonicalizes an algorithm for the token: tokens carry the
// route.ByName name, so decorated names like "incremental(sph)" map back
// to their constructor.
func tokenAlgName(alg route.Algorithm) string {
	name := alg.Name()
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	return name
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// EncodeToken renders (cfg, scn, sched) as a replay token.
func EncodeToken(cfg Config, scn Scenario, sched []int) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	if _, err := route.ByName(tokenAlgName(cfg.Algorithm)); err != nil {
		return "", fmt.Errorf("explore: algorithm %q has no ByName constructor; token would not replay: %w",
			cfg.Algorithm.Name(), err)
	}
	var buf []byte
	// Topology.
	g := cfg.Graph
	buf = appendUvarint(buf, uint64(g.NumSwitches()))
	links := g.Links()
	buf = appendUvarint(buf, uint64(len(links)))
	for _, l := range links {
		buf = appendUvarint(buf, uint64(l.A))
		buf = appendUvarint(buf, uint64(l.B))
		buf = appendUvarint(buf, uint64(l.Delay))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(l.Capacity))
	}
	// Configuration.
	name := tokenAlgName(cfg.Algorithm)
	buf = appendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	kinds := make([]lsa.ConnID, 0, len(cfg.Kinds))
	for id := range cfg.Kinds {
		kinds = append(kinds, id)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	buf = appendUvarint(buf, uint64(len(kinds)))
	for _, id := range kinds {
		buf = appendUvarint(buf, uint64(id))
		buf = append(buf, byte(cfg.Kinds[id]))
	}
	flags := byte(0)
	if cfg.Resync {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendUvarint(buf, uint64(cfg.ResyncMaxRounds))
	buf = appendUvarint(buf, uint64(cfg.MaxDrops))
	buf = appendUvarint(buf, uint64(cfg.MaxDups))
	buf = append(buf, byte(cfg.Mutation))
	// Scenario.
	buf = appendUvarint(buf, uint64(len(scn.Injects)))
	for _, inj := range scn.Injects {
		buf = appendUvarint(buf, uint64(inj.Switch))
		buf = append(buf, byte(inj.Event.Kind))
		buf = appendUvarint(buf, uint64(inj.Event.Conn))
		buf = append(buf, byte(inj.Event.Role))
		buf = appendUvarint(buf, uint64(inj.Event.Link.A))
		buf = appendUvarint(buf, uint64(inj.Event.Link.B))
		if inj.Event.Link.Down {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	// Fault lane (v2 and v3 — fault-free scenarios without a compute
	// budget stay v1).
	prefix := tokenPrefix
	if len(scn.Faults) > 0 || cfg.MaxComputes > 0 {
		if err := scn.validate(cfg.Graph); err != nil {
			return "", err
		}
		prefix = tokenPrefixV2
		buf = appendUvarint(buf, uint64(len(scn.Faults)))
		for _, op := range scn.Faults {
			buf = append(buf, byte(op.Kind))
			buf = appendUvarint(buf, uint64(op.Switch))
			buf = appendUvarint(buf, uint64(len(op.Groups)))
			for _, grp := range op.Groups {
				buf = appendUvarint(buf, uint64(len(grp)))
				for _, s := range grp {
					buf = appendUvarint(buf, uint64(s))
				}
			}
		}
	}
	if cfg.MaxComputes > 0 {
		prefix = tokenPrefixV3
		buf = appendUvarint(buf, uint64(cfg.MaxComputes))
	}
	// Schedule.
	buf = appendUvarint(buf, uint64(len(sched)))
	for _, c := range sched {
		if c < 0 {
			return "", fmt.Errorf("explore: negative schedule choice %d", c)
		}
		buf = appendUvarint(buf, uint64(c))
	}
	return prefix + base64.RawURLEncoding.EncodeToString(buf), nil
}

type tokenReader struct {
	buf []byte
	err error
}

func (r *tokenReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("explore: token truncated at %s", what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *tokenReader) byteVal(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = fmt.Errorf("explore: token truncated at %s", what)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *tokenReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf) < n {
		r.err = fmt.Errorf("explore: token truncated at %s", what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// DecodeToken parses a replay token back into the configuration, scenario,
// and schedule it encodes.
func DecodeToken(tok string) (Config, Scenario, []int, error) {
	var cfg Config
	var scn Scenario
	version := 0
	var payload string
	for i, prefix := range [...]string{tokenPrefix, tokenPrefixV2, tokenPrefixV3} {
		if strings.HasPrefix(tok, prefix) {
			version = i + 1
			payload = strings.TrimPrefix(tok, prefix)
		}
	}
	if version == 0 {
		return cfg, scn, nil, fmt.Errorf("explore: not a %q, %q or %q token", tokenPrefix, tokenPrefixV2, tokenPrefixV3)
	}
	raw, err := base64.RawURLEncoding.DecodeString(payload)
	if err != nil {
		return cfg, scn, nil, fmt.Errorf("explore: token payload: %w", err)
	}
	r := &tokenReader{buf: raw}
	n := int(r.uvarint("switch count"))
	if r.err == nil && (n < 2 || n > 1<<16) {
		return cfg, scn, nil, fmt.Errorf("explore: implausible switch count %d", n)
	}
	nLinks := int(r.uvarint("link count"))
	if r.err == nil && (nLinks < 0 || nLinks > n*n) {
		return cfg, scn, nil, fmt.Errorf("explore: implausible link count %d", nLinks)
	}
	var g *topo.Graph
	if r.err == nil {
		g = topo.New(n)
	}
	for i := 0; i < nLinks && r.err == nil; i++ {
		a := topo.SwitchID(r.uvarint("link a"))
		b := topo.SwitchID(r.uvarint("link b"))
		delay := time.Duration(r.uvarint("link delay"))
		capBits := r.bytes(8, "link capacity")
		if r.err != nil {
			break
		}
		if err := g.AddLink(a, b, delay, math.Float64frombits(binary.BigEndian.Uint64(capBits))); err != nil {
			return cfg, scn, nil, fmt.Errorf("explore: token link: %w", err)
		}
	}
	nameLen := int(r.uvarint("algorithm name length"))
	if r.err == nil && nameLen > 64 {
		return cfg, scn, nil, fmt.Errorf("explore: implausible algorithm name length %d", nameLen)
	}
	name := string(r.bytes(nameLen, "algorithm name"))
	nKinds := int(r.uvarint("kind count"))
	var kinds map[lsa.ConnID]mctree.Kind
	if r.err == nil && nKinds > 0 {
		kinds = make(map[lsa.ConnID]mctree.Kind, nKinds)
	}
	for i := 0; i < nKinds && r.err == nil; i++ {
		id := lsa.ConnID(r.uvarint("kind conn"))
		kinds[id] = mctree.Kind(r.byteVal("kind value"))
	}
	flags := r.byteVal("flags")
	resyncRounds := int(r.uvarint("resync rounds"))
	maxDrops := int(r.uvarint("drop budget"))
	maxDups := int(r.uvarint("dup budget"))
	mutation := r.byteVal("mutation")
	nInjects := int(r.uvarint("inject count"))
	if r.err == nil && nInjects > 1<<20 {
		return cfg, scn, nil, fmt.Errorf("explore: implausible inject count %d", nInjects)
	}
	injects := make([]Inject, 0, min(nInjects, 1024))
	for i := 0; i < nInjects && r.err == nil; i++ {
		var inj Inject
		inj.Switch = topo.SwitchID(r.uvarint("inject switch"))
		inj.Event.Kind = lsa.Event(r.byteVal("inject kind"))
		inj.Event.Conn = lsa.ConnID(r.uvarint("inject conn"))
		inj.Event.Role = mctree.Role(r.byteVal("inject role"))
		inj.Event.Link.A = topo.SwitchID(r.uvarint("inject link a"))
		inj.Event.Link.B = topo.SwitchID(r.uvarint("inject link b"))
		inj.Event.Link.Down = r.byteVal("inject link down") != 0
		injects = append(injects, inj)
	}
	var faultOps []FaultOp
	if version >= 2 {
		nFaults := int(r.uvarint("fault count"))
		if r.err == nil && nFaults > 1<<16 {
			return cfg, scn, nil, fmt.Errorf("explore: implausible fault count %d", nFaults)
		}
		faultOps = make([]FaultOp, 0, min(nFaults, 256))
		for i := 0; i < nFaults && r.err == nil; i++ {
			var op FaultOp
			op.Kind = FaultKind(r.byteVal("fault kind"))
			op.Switch = topo.SwitchID(r.uvarint("fault switch"))
			nGroups := int(r.uvarint("fault group count"))
			if r.err == nil && nGroups > 1<<16 {
				return cfg, scn, nil, fmt.Errorf("explore: implausible group count %d", nGroups)
			}
			for gi := 0; gi < nGroups && r.err == nil; gi++ {
				size := int(r.uvarint("fault group size"))
				if r.err == nil && size > 1<<16 {
					return cfg, scn, nil, fmt.Errorf("explore: implausible group size %d", size)
				}
				grp := make([]topo.SwitchID, 0, min(size, 1024))
				for k := 0; k < size && r.err == nil; k++ {
					grp = append(grp, topo.SwitchID(r.uvarint("fault group switch")))
				}
				op.Groups = append(op.Groups, grp)
			}
			faultOps = append(faultOps, op)
		}
	}
	maxComputes := 0
	if version >= 3 {
		maxComputes = int(r.uvarint("compute budget"))
		if r.err == nil && (maxComputes <= 0 || maxComputes > 1<<16) {
			return cfg, scn, nil, fmt.Errorf("explore: implausible compute budget %d", maxComputes)
		}
	}
	nSched := int(r.uvarint("schedule length"))
	if r.err == nil && nSched > 1<<24 {
		return cfg, scn, nil, fmt.Errorf("explore: implausible schedule length %d", nSched)
	}
	sched := make([]int, 0, min(nSched, 4096))
	for i := 0; i < nSched && r.err == nil; i++ {
		sched = append(sched, int(r.uvarint("schedule choice")))
	}
	if r.err != nil {
		return cfg, scn, nil, r.err
	}
	if len(r.buf) != 0 {
		return cfg, scn, nil, fmt.Errorf("explore: %d trailing bytes in token", len(r.buf))
	}
	alg, err := route.ByName(name)
	if err != nil {
		return cfg, scn, nil, fmt.Errorf("explore: token algorithm: %w", err)
	}
	cfg = Config{
		Graph:           g,
		Algorithm:       alg,
		Kinds:           kinds,
		Resync:          flags&1 != 0,
		ResyncMaxRounds: resyncRounds,
		MaxDrops:        maxDrops,
		MaxDups:         maxDups,
		MaxComputes:     maxComputes,
		Mutation:        core.Mutation(mutation),
	}
	scn = Scenario{Injects: injects, Faults: faultOps}
	if err := cfg.validate(); err != nil {
		return cfg, scn, nil, err
	}
	if err := scn.validate(cfg.Graph); err != nil {
		return cfg, scn, nil, err
	}
	return cfg, scn, sched, nil
}

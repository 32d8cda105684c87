package rap

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/canon"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Memo is the artifact interface the incremental allocator records region
// summaries through. internal/store's Store and PrefixView satisfy it; so
// does MapMemo for in-process reuse. Implementations must be safe for
// concurrent use when the caller allocates concurrently.
type Memo interface {
	// Get returns the artifact stored under key, or ok=false.
	Get(key string) ([]byte, bool)
	// Put records an artifact. A failed Put only loses future reuse.
	Put(key string, val []byte) error
}

// MapMemo is an in-memory Memo for tests and single-process pipelines.
type MapMemo struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMapMemo returns an empty MapMemo.
func NewMapMemo() *MapMemo { return &MapMemo{m: map[string][]byte{}} }

// Get implements Memo.
func (m *MapMemo) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[key]
	return v, ok
}

// Put implements Memo.
func (m *MapMemo) Put(key string, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = append([]byte(nil), val...)
	return nil
}

// Len returns the number of stored artifacts.
func (m *MapMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Item is one stored artifact, as returned by Items.
type Item struct {
	Key string
	Val []byte
}

// Items returns copies of the stored artifacts sorted by key — for tests
// and tools that compare or replicate a store's contents.
func (m *MapMemo) Items() []Item {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Item, 0, len(m.m))
	for k, v := range m.m {
		out = append(out, Item{Key: k, Val: append([]byte(nil), v...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MemoSalt renders k and every allocation-determining option as a
// canonical string. It is folded into each region fingerprint so
// artifacts recorded under one configuration can never be served to
// another. Trace and Memo are excluded: they do not affect the
// allocation. MaxIterations is normalized the same way AllocateWithStats
// normalizes it (0 means 100).
func MemoSalt(k int, o Options) string {
	it := o.MaxIterations
	if it == 0 {
		it = 100
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rap-memo/v1|k=%d|it=%d", k, it)
	for _, f := range []struct {
		name string
		on   bool
	}{
		{"nomotion", o.DisableSpillMotion},
		{"nopeephole", o.DisablePeephole},
		{"coalesce", o.Coalesce},
		{"xpeephole", o.ExtendedPeephole},
		{"remat", o.Rematerialize},
	} {
		if f.on {
			b.WriteString("|")
			b.WriteString(f.name)
		}
	}
	return b.String()
}

// --- summary graph codec ---
//
// A memoized artifact is a combined summary graph (≤ k nodes) expressed
// in the region key's canonical register ids. Nodes are serialized in
// arena (creation) order and recreated in the same order, so the decoded
// graph's node ids — which every deterministic iteration in the parent's
// build/colour follows — are identical to the freshly computed graph's.

// summaryVersion guards the artifact encoding; a mismatch is a miss.
const summaryVersion = 1

// encodeSummary serializes sum against key's canonical numbering. ok is
// false when a node register is not a subtree register, which cannot
// happen for a spill-free allocation; the caller then skips recording.
func encodeSummary(sum *ig.Graph, key *canon.RegionKey) ([]byte, bool) {
	id := make(map[ir.Reg]uint64, len(key.Regs))
	for i, r := range key.Regs {
		id[r] = uint64(i + 1)
	}
	nodes := sum.NodesByID()
	buf := []byte{summaryVersion}
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	pos := make(map[*ig.Node]uint64, len(nodes))
	for i, n := range nodes {
		pos[n] = uint64(i)
		buf = binary.AppendUvarint(buf, uint64(n.Color))
		if n.Global {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Regs)))
		for _, r := range n.Regs {
			cid, ok := id[r]
			if !ok {
				return nil, false
			}
			buf = binary.AppendUvarint(buf, cid)
		}
	}
	var edges [][2]uint64
	for i, n := range nodes {
		n.ForEachAdj(func(m *ig.Node) {
			if j := pos[m]; j > uint64(i) {
				edges = append(edges, [2]uint64{uint64(i), j})
			}
		})
	}
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, e[0])
		buf = binary.AppendUvarint(buf, e[1])
	}
	return buf, true
}

// decodeSummary rebuilds a summary graph from data, translating canonical
// ids through key.Regs. Every malformed or out-of-range field makes the
// decode fail (ok=false), which the caller treats as a miss — a corrupt
// or stale artifact can degrade reuse but never the allocation.
func decodeSummary(data []byte, key *canon.RegionKey, k int) (*ig.Graph, bool) {
	if len(data) == 0 || data[0] != summaryVersion {
		return nil, false
	}
	rest := data[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	nNodes, ok := next()
	if !ok || nNodes == 0 || nNodes > uint64(k) {
		return nil, false
	}
	g := ig.New()
	nodes := make([]*ig.Node, 0, nNodes)
	seenColor := make(map[int]bool, nNodes)
	seenReg := make(map[uint64]bool, len(key.Regs))
	for i := uint64(0); i < nNodes; i++ {
		color, ok1 := next()
		if !ok1 || color < 1 || color > uint64(k) || seenColor[int(color)] {
			return nil, false
		}
		seenColor[int(color)] = true
		if len(rest) == 0 || rest[0] > 1 {
			return nil, false
		}
		global := rest[0] == 1
		rest = rest[1:]
		nRegs, ok2 := next()
		if !ok2 || nRegs == 0 || nRegs > uint64(len(key.Regs)) {
			return nil, false
		}
		regs := make([]ir.Reg, 0, nRegs)
		for j := uint64(0); j < nRegs; j++ {
			cid, ok3 := next()
			if !ok3 || cid < 1 || cid > uint64(len(key.Regs)) || seenReg[cid] {
				return nil, false
			}
			seenReg[cid] = true
			regs = append(regs, key.Regs[cid-1])
		}
		// Recreate the node with its full member set in ascending register
		// order, matching how Combine left it; the arena id is the creation
		// index either way.
		sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
		n := g.Ensure(regs[0])
		for _, r := range regs[1:] {
			g.AddRegToNode(n, r)
		}
		n.Color = int(color)
		n.Global = global
		nodes = append(nodes, n)
	}
	nEdges, ok := next()
	if !ok || nEdges > nNodes*nNodes {
		return nil, false
	}
	for e := uint64(0); e < nEdges; e++ {
		i, ok1 := next()
		j, ok2 := next()
		if !ok1 || !ok2 || i >= nNodes || j >= nNodes || i == j {
			return nil, false
		}
		g.AddNodeEdge(nodes[i], nodes[j])
	}
	if len(rest) != 0 {
		return nil, false
	}
	return g, true
}

// --- allocator integration ---

// initMemo builds the fingerprint hasher over the allocator's own
// analysis state. Called once after the initial reanalyze; never rebuilt,
// because the first code edit (spill insertion) disables memoization for
// the rest of the function.
func (a *allocator) initMemo() {
	if a.opts.Memo == nil {
		return
	}
	refs := map[ir.Reg]int{}
	for r, c := range a.totalRefs {
		if c > 0 {
			refs[ir.Reg(r)] = c
		}
	}
	a.hasher = canon.NewHasherFromAnalysis(
		a.f, MemoSalt(a.k, a.opts), a.spans, a.g.InstrSuccs, a.lv.LiveIn, refs)
	a.memoKeys = map[int]canon.RegionKey{}
}

// memoDisable turns memoization off for the rest of the allocation. It
// runs before the first spill edit: after instructions change, the
// hasher's analysis state is stale and region contents no longer match
// what a pristine re-allocation would see.
func (a *allocator) memoDisable() {
	a.hasher = nil
	a.memoKeys = nil
}

// memoActive reports whether region V participates in memoization: a
// non-entry region with a non-empty span, before any spill edit. The
// entry region is excluded because its colouring is the physical
// assignment, not a ≤ k summary.
func (a *allocator) memoActive(V *ir.Region) bool {
	return a.hasher != nil && V.Parent != nil && !a.spans[V.ID].Empty()
}

// memoLookup tries to serve V's summary graph from the memo. On a hit the
// caller skips the whole subtree: nothing later reads the graphs of a
// memoized region's descendants (the parent build consults only direct
// children, and spill motion only runs when spills occurred — which
// disables memoization first).
func (a *allocator) memoLookup(V *ir.Region) (*ig.Graph, bool) {
	if !a.memoActive(V) {
		return nil, false
	}
	defer a.opts.Trace.StartTimer("rap.phase.memo")()
	key := a.hasher.Region(V)
	a.memoKeys[V.ID] = key
	data, ok := a.memoGet(key.Fp.String())
	if !ok {
		a.memoMiss(key.Fp.String())
		return nil, false
	}
	g, ok := decodeSummary(data, &key, a.k)
	if !ok {
		// A corrupt or stale artifact counts as a missed key too: the
		// sequential walk would re-record over it, and a sibling doing so
		// during this batch must invalidate this shard's speculation.
		a.memoMiss(key.Fp.String())
		return nil, false
	}
	a.stats.MemoHits++
	if a.opts.Trace.Enabled() {
		a.opts.Trace.Emit(&obs.RegionMemoReused{
			Func: a.f.Name, Region: V.ID, Key: key.Fp.String(), Nodes: g.NumNodes(),
		})
	}
	return g, true
}

// memoRecord stores V's freshly combined summary. Only spill-free
// subtrees reach here with memoization still active, so the recorded
// artifact is exactly what a pristine allocation of an identical subtree
// would compute.
func (a *allocator) memoRecord(V *ir.Region, sum *ig.Graph) {
	if !a.memoActive(V) {
		return
	}
	key, ok := a.memoKeys[V.ID]
	if !ok {
		key = a.hasher.Region(V)
	}
	data, ok := encodeSummary(sum, &key)
	if !ok {
		return
	}
	if a.speculative {
		// Speculative shards never write the store: puts buffer on the
		// shard's pending chain and reach the store — counting MemoStores
		// there — only when the deterministic join commits the shard.
		a.pending.put(key.Fp.String(), data)
		return
	}
	if a.opts.Memo.Put(key.Fp.String(), data) == nil {
		a.stats.MemoStores++
	}
}

// memoGet reads through this allocator's pending-put chain (non-empty
// only under speculation) before the real store, so a shard observes its
// own deferred stores exactly as the sequential walk would observe real
// ones.
func (a *allocator) memoGet(key string) ([]byte, bool) {
	if a.pending != nil {
		if v, ok := a.pending.get(key); ok {
			return v, true
		}
	}
	return a.opts.Memo.Get(key)
}

// memoMiss counts a failed lookup and, under speculation, records the key
// so the join can detect that an earlier-committed sibling stored it —
// which invalidates this shard's miss (see allocator.invalidated).
func (a *allocator) memoMiss(key string) {
	a.stats.MemoMisses++
	if a.speculative {
		a.missed = append(a.missed, key)
	}
}

// Package rap implements RAP, the paper's contribution: a register
// allocator that works hierarchically over the Program Dependence Graph's
// region structure (Norris & Pollock, PLDI 1994).
//
// Allocation proceeds in the paper's three phases:
//
//  1. A bottom-up pass over the region tree (§3.1, Fig. 2). Each region
//     gets its own interference graph, built from the statements the
//     region owns directly (add_region_conflicts) plus the combined
//     summary graphs of its subregions (add_subregion_conflicts, Fig. 4).
//     Spill costs follow Fig. 5; colouring uses simplify/select with the
//     Briggs optimistic enhancement and first-fit colour choice; spills
//     are inserted region-locally (§3.1.4) with the recursive
//     outside-region fixup; successful colourings are summarized by
//     combining same-coloured nodes (§3.1.5) before being handed to the
//     parent region. Physical registers are fixed at the entry region.
//  2. A top-down pass that moves spill loads/stores out of loop regions
//     into spill nodes before/after the loop (§3.2).
//  3. A local pass that eliminates redundant loads and stores inside
//     basic blocks (§3.3, Fig. 6), implemented in package peephole.
package rap

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/canon"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/peephole"
	"repro/internal/regalloc"
)

// Options configures RAP. The zero value is the paper's configuration.
type Options struct {
	// MaxIterations bounds each region's build/colour/spill loop
	// (0 means 100).
	MaxIterations int
	// DisableSpillMotion turns off phase 2 (ablation).
	DisableSpillMotion bool
	// DisablePeephole turns off phase 3 (ablation).
	DisablePeephole bool
	// Coalesce enables conservative (Briggs) coalescing at each region
	// level (the paper's §5 future-work extension; off in the published
	// configuration). Global-global merges are never performed.
	Coalesce bool
	// ExtendedPeephole replaces phase 3's basic-block-local pass with the
	// whole-function dataflow version (peephole.RunGlobal) — our
	// implementation of §5's "better placement of spill code" future
	// work. Off in the published configuration.
	ExtendedPeephole bool
	// Rematerialize recomputes never-killed constants at their uses
	// instead of spilling them (Briggs et al.; deliberately absent from
	// the paper's configuration). Extension, off by default.
	Rematerialize bool
	// Trace receives structured events and per-phase timings from all
	// three RAP phases. nil (the default) is free on the hot path. The
	// library never consults the environment; the RAP_DEBUG shim lives
	// in the commands (rapcc/rapbench/rapserved), which decide the sink
	// and pass it down here.
	Trace *obs.Tracer
	// Memo, when non-nil, memoizes region allocations: before allocating
	// a region subtree the allocator looks up the subtree's structural
	// fingerprint (internal/canon) and on a hit reuses the recorded
	// summary graph instead of recursing. Only spill-free subtrees are
	// recorded, and all memoization stops at the function's first spill
	// edit, so memoized allocations are byte-identical to cold ones.
	Memo Memo
	// IntraParallel bounds the worker pool the bottom-up walk (Fig. 2)
	// uses to allocate sibling region subtrees concurrently. Siblings
	// are independent by construction — each child is summarized before
	// its parent is coloured — so subtrees fan out speculatively and
	// join at the parent in region-index order; a subtree that needs
	// spill code aborts its speculation and replays sequentially (a
	// spill edits the shared instruction list). The allocation, the
	// deterministic metrics sections and the trace event stream are all
	// byte-identical to the sequential walk's. 0 or 1 keeps the paper's
	// sequential walk; the option never changes the result, only the
	// wall clock, so it is excluded from MemoSalt and cache keys.
	IntraParallel int
}

// Stats reports what each phase of a RAP allocation did.
type Stats struct {
	// SpillRounds counts build/colour/spill iterations beyond the first,
	// summed over all regions.
	SpillRounds int
	// RegsSpilled counts register spills (a register spilled at two
	// region levels counts twice).
	RegsSpilled int
	// Coalesced counts region-level conservative coalesces (§5
	// extension; zero unless Options.Coalesce).
	Coalesced int
	// Rematerialized counts registers replaced by recomputation instead
	// of memory spills (zero unless Options.Rematerialize).
	Rematerialized int
	// Hoists counts spill-code families moved out of a loop (§3.2).
	Hoists int
	// Peephole reports phase 3's removals (§3.3).
	Peephole peephole.Stats
	// CopiesRemoved counts i2i r=>r instructions deleted after the
	// rewrite to physical registers.
	CopiesRemoved int
	// MemoHits/MemoMisses/MemoStores report region-memo traffic (zero
	// unless Options.Memo): subtrees served from a recorded summary,
	// lookups that found nothing, and summaries recorded.
	MemoHits   int
	MemoMisses int
	MemoStores int
}

// Allocate rewrites f to use at most k physical registers by hierarchical
// allocation over f's region tree.
func Allocate(f *ir.Function, k int, opts Options) error {
	_, err := AllocateWithStats(f, k, opts)
	return err
}

// AllocateWithStats is Allocate, additionally reporting per-phase
// statistics.
func AllocateWithStats(f *ir.Function, k int, opts Options) (Stats, error) {
	if k < regalloc.MinRegisters {
		return Stats{}, fmt.Errorf("rap: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	if f.Regions == nil {
		return Stats{}, fmt.Errorf("rap: %s has no region tree", f.Name)
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 100
	}
	a := &allocator{
		f:         f,
		k:         k,
		opts:      opts,
		sp:        regalloc.NewSpiller(f),
		graphs:    map[int]*ig.Graph{},
		spilledIn: map[int]map[ir.Reg]bool{},
		scratch:   &regScratch{},
	}
	if opts.IntraParallel > 1 {
		a.sched = newIntraSched(opts.IntraParallel)
	}
	if err := a.reanalyze(); err != nil {
		return Stats{}, err
	}
	a.initMemo()
	// Phase 1: bottom-up allocation. The entry region's colouring is the
	// physical register assignment.
	sp1 := opts.Trace.StartSpan("rap.color")
	err := a.allocateRegion(f.Regions)
	sp1.End()
	if err != nil {
		return a.stats, err
	}
	entry := a.graphs[f.Regions.ID]
	if err := entry.CheckColoring(k, false); err != nil {
		return a.stats, fmt.Errorf("rap: %s: entry colouring invalid: %w", f.Name, err)
	}
	// Phase 2 runs before the rewrite so it can reason about virtual
	// registers and their colours.
	if !opts.DisableSpillMotion {
		sp2 := opts.Trace.StartSpan("rap.motion")
		err := a.moveSpillCode(entry)
		sp2.End()
		if err != nil {
			return a.stats, err
		}
	}
	if err := regalloc.RewriteToPhysical(f, entry, k); err != nil {
		return a.stats, fmt.Errorf("rap: %w", err)
	}
	a.stats.CopiesRemoved = regalloc.RemoveSelfCopies(f)
	// Phase 3: load/store elimination — basic-block local as published,
	// or the whole-function extension.
	if !opts.DisablePeephole {
		pass := peephole.RunTraced
		if opts.ExtendedPeephole {
			pass = peephole.RunGlobalTraced
		}
		sp3 := opts.Trace.StartSpan("rap.peephole")
		st, err := pass(f, opts.Trace)
		sp3.End()
		if err != nil {
			return a.stats, fmt.Errorf("rap: %w", err)
		}
		a.stats.Peephole = st
	}
	a.recordStats()
	return a.stats, nil
}

// recordStats publishes the allocation's Stats as metrics counters so a
// snapshot carries them without the caller re-plumbing Stats.
func (a *allocator) recordStats() {
	m := a.opts.Trace.Metrics()
	if m == nil {
		return
	}
	m.Add("rap.spill_rounds", int64(a.stats.SpillRounds))
	m.Add("rap.regs_spilled", int64(a.stats.RegsSpilled))
	m.Add("rap.coalesced", int64(a.stats.Coalesced))
	m.Add("rap.rematerialized", int64(a.stats.Rematerialized))
	m.Add("rap.hoists", int64(a.stats.Hoists))
	m.Add("rap.peephole.loads_deleted", int64(a.stats.Peephole.LoadsDeleted))
	m.Add("rap.peephole.loads_to_copies", int64(a.stats.Peephole.LoadsToCopies))
	m.Add("rap.peephole.stores_deleted", int64(a.stats.Peephole.StoresDeleted))
	m.Add("rap.copies_removed", int64(a.stats.CopiesRemoved))
	m.Add("rap.memo.hits", int64(a.stats.MemoHits))
	m.Add("rap.memo.misses", int64(a.stats.MemoMisses))
	m.Add("rap.memo.stores", int64(a.stats.MemoStores))
	m.Add("rap.funcs_allocated", 1)
}

type allocator struct {
	f    *ir.Function
	k    int
	opts Options
	sp   *regalloc.Spiller

	// graphs[id] is the summary interference graph of region id: the
	// coloured, combined (≤ k node) graph for interior regions, and the
	// full coloured graph for the entry region.
	graphs map[int]*ig.Graph
	// spilledIn[id] records origins spilled while allocating region id
	// (used by the Fig. 5 "already spilled" rule).
	spilledIn map[int]map[ir.Reg]bool

	// Analysis state, brought up to date after every code edit: rebuilt
	// by reanalyze, or patched by patchAnalysis after a spill round.
	// totalRefs[r] counts r's references (one per operand occurrence).
	g         *cfg.Graph
	lv        *dataflow.Liveness
	du        *dataflow.DefUse
	spans     []ir.Span
	totalRefs []int

	// Spill-path scratch. jumpers maps each label to the branches
	// targeting it, built on first use in a spill round (nil after any
	// edit). visited/visitGen stamp defEscapes' walks: slot i is visited
	// in the current walk iff visited[i] == visitGen. walk is the stack
	// shared by defEscapes and the liveness patch.
	jumpers  map[string][]int
	visited  []int32
	visitGen int32
	walk     []int

	// Region-memo state (nil unless Options.Memo and still pristine).
	// hasher fingerprints subtrees against the initial analysis; it is
	// dropped by memoDisable at the first spill edit. memoKeys caches the
	// key computed by memoLookup so memoRecord reuses it.
	hasher   *canon.Hasher
	memoKeys map[int]canon.RegionKey

	// scratch holds the reusable dense buffers behind the per-region
	// helper sets and counts. Per-allocator: every speculative shard
	// forks with its own.
	scratch *regScratch

	// Intra-function parallel walk state (see parallel.go). sched is the
	// function-wide bounded worker pool, shared by root and shards.
	// speculative marks a forked shard allocator: it must not mutate any
	// shared state — a subtree that needs spill code aborts with
	// errSpeculativeSpill instead of editing instructions, memo writes
	// collect in pending instead of reaching the store, and trace/metrics
	// buffer in spec until the deterministic join commits them. missed
	// records memo keys the shard looked up without finding, so the join
	// can detect speculation invalidated by an earlier sibling's store.
	sched       *intraSched
	speculative bool
	pending     *pendingMemo
	spec        *obs.SpecFork
	missed      []string

	stats Stats
}

// checkPatch, set only by tests, runs after every patched analysis; an
// error fails the allocation. Tests compare the patch with a full
// reanalyze.
var checkPatch func(*allocator) error

// livenessCap is the register capacity reanalyze gives the liveness
// sets: room for the registers later spill rounds create, so rounds can
// patch the sets in place until NextReg outgrows it.
func livenessCap(nextReg ir.Reg) int { return int(nextReg) + int(nextReg)/2 + 64 }

// reanalyze rebuilds the CFG, liveness, def-use chains, region spans and
// reference counts from scratch after the instruction list changed.
func (a *allocator) reanalyze() error {
	defer a.opts.Trace.StartTimer("rap.phase.analyze")()
	g, err := cfg.Build(a.f)
	if err != nil {
		return fmt.Errorf("rap: %w", err)
	}
	a.g = g
	a.lv = dataflow.ComputeLivenessCap(g, livenessCap(a.f.NextReg))
	a.refresh()
	return nil
}

// refresh rebuilds the analyses that cost one linear scan: def-use
// chains, spans and reference counts.
func (a *allocator) refresh() {
	a.du = dataflow.ComputeDefUse(a.g)
	a.spans = a.f.RegionSpans()
	if cap(a.totalRefs) < int(a.f.NextReg) {
		a.totalRefs = make([]int, a.f.NextReg)
	} else {
		a.totalRefs = a.totalRefs[:a.f.NextReg]
		clear(a.totalRefs)
	}
	var buf []ir.Reg
	for i := range a.f.Instrs {
		buf = a.refsAt(i, buf[:0])
		for _, r := range buf {
			a.totalRefs[r]++
		}
	}
	a.jumpers = nil
	a.scratch.resize(a.lv.NumRegs)
}

// patchAnalysis brings the analysis up to date after a spill round's
// insert-only edit, which changed the liveness of spilled alone and of
// the registers created since oldNext. Every other register keeps its
// per-instruction sets: those move to their new indices, and an
// inserted instruction copies its neighbour's (the LiveIn of the
// instruction it precedes, the LiveOut of the one it follows). The
// changed registers are cleared and reflowed from their uses. The CFG,
// def-use chains, spans and counts are rebuilt, each in linear time.
//
// Changing the liveness sets (and refresh's reference counts) in place
// is safe under the intra-parallel walk: allocateBatch joins every shard
// before a replay can reach a spill, so no shard reads them while they
// change, and memoDisable dropped the memo hasher, which borrows LiveIn,
// before the first edit.
func (a *allocator) patchAnalysis(edit *regalloc.Edit, spilled []ir.Reg, oldNext ir.Reg) error {
	defer a.opts.Trace.StartTimer("rap.phase.analyze")()
	// The old CFG and use sites still describe the sets: clear the
	// spilled registers' live ranges before the sets move.
	for _, r := range spilled {
		a.walk = a.lv.Forget(a.g, r, a.du.Uses[r], a.walk)
	}
	g, err := cfg.Build(a.f)
	if err != nil {
		return fmt.Errorf("rap: %w", err)
	}
	a.g = g
	moveLiveness(a.lv, edit)
	a.refresh()
	for _, r := range spilled {
		a.walk = a.lv.Reflow(g, r, a.du.Uses[r], a.walk)
	}
	for r := oldNext; r < a.f.NextReg; r++ {
		a.walk = a.lv.Reflow(g, r, a.du.Uses[r], a.walk)
	}
	if checkPatch != nil {
		return checkPatch(a)
	}
	return nil
}

// moveLiveness re-indexes lv across edit, which only inserts: sets move
// by pointer, inserted instructions get copies.
func moveLiveness(lv *dataflow.Liveness, edit *regalloc.Edit) {
	added := 0
	for _, ins := range edit.Before {
		added += len(ins)
	}
	for _, ins := range edit.After {
		added += len(ins)
	}
	fresh := bitset.NewBatch(2*added, lv.NumRegs)
	n := len(lv.LiveIn) + added
	in, out := make([]*bitset.Set, 0, n), make([]*bitset.Set, 0, n)
	copyOf := func(s *bitset.Set) {
		fresh[0].Copy(s)
		fresh[1].Copy(s)
		in, out = append(in, fresh[0]), append(out, fresh[1])
		fresh = fresh[2:]
	}
	prev := 0
	for _, i := range edit.Positions(len(lv.LiveIn)) {
		in, out = append(in, lv.LiveIn[prev:i]...), append(out, lv.LiveOut[prev:i]...)
		for range edit.Before[i] {
			copyOf(lv.LiveIn[i])
		}
		in, out = append(in, lv.LiveIn[i]), append(out, lv.LiveOut[i])
		for range edit.After[i] {
			copyOf(lv.LiveOut[i])
		}
		prev = i + 1
	}
	lv.LiveIn = append(in, lv.LiveIn[prev:]...)
	lv.LiveOut = append(out, lv.LiveOut[prev:]...)
}

// allocateRegion runs the Fig. 2 procedure on region V after recursively
// allocating its subregions.
func (a *allocator) allocateRegion(V *ir.Region) error {
	if g, ok := a.memoLookup(V); ok {
		a.graphs[V.ID] = g
		return nil
	}
	if err := a.allocateChildren(V); err != nil {
		return err
	}
	isEntry := V.Parent == nil
	for iter := 0; iter < a.opts.MaxIterations; iter++ {
		stopBuild := a.opts.Trace.StartTimer("rap.phase.build")
		gv := a.buildRegionGraph(V)
		stopBuild()
		stopCost := a.opts.Trace.StartTimer("rap.phase.cost")
		a.calcSpillCosts(V, gv)
		stopCost()
		stopColor := a.opts.Trace.StartTimer("rap.phase.color")
		res := gv.Color(a.k, !isEntry)
		stopColor()
		if len(res.Spilled) == 0 {
			if m := a.opts.Trace.Metrics(); m != nil {
				m.ObserveVal("rap.region.iters", int64(iter)+1)
				m.ObserveVal("rap.region.nodes", int64(gv.NumNodes()))
			}
			if a.opts.Trace.Enabled() {
				a.opts.Trace.Emit(regionColoredEvent(a.f.Name, V, iter, gv))
			}
			if isEntry {
				a.graphs[V.ID] = gv
			} else {
				sum := gv.Combine()
				a.graphs[V.ID] = sum
				a.memoRecord(V, sum)
			}
			return nil
		}
		// A speculative shard must not edit the instruction list (it is
		// shared with concurrently running siblings): abort the
		// speculation before emitting any spill event and let the join
		// replay this subtree sequentially, where the identical analysis
		// state reproduces the identical spill decision.
		if a.speculative {
			return errSpeculativeSpill
		}
		if a.opts.Trace.Enabled() {
			for _, n := range res.Spilled {
				a.opts.Trace.Emit(&obs.NodeSpilled{
					Func: a.f.Name, Region: V.ID, Iter: iter,
					Regs: regNames(n.Regs), Cost: n.SpillCost,
					Degree: n.Degree(), Global: n.Global,
				})
			}
			a.opts.Trace.Emit(&obs.IterationRetried{
				Func: a.f.Name, Region: V.ID, Iter: iter, Spilled: len(res.Spilled),
			})
		}
		a.stats.SpillRounds++
		if err := a.insertSpillCode(V, res.Spilled); err != nil {
			return err
		}
	}
	return fmt.Errorf("rap: %s: region %d not colourable after %d spill rounds (k=%d)",
		a.f.Name, V.ID, a.opts.MaxIterations, a.k)
}

// regNames renders member registers for an event.
func regNames(regs []ir.Reg) []string {
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.String()
	}
	return out
}

// regionColoredEvent summarizes a successful region colouring, with the
// full per-register assignment (the entry region's assignment is the
// physical one).
func regionColoredEvent(fn string, V *ir.Region, iter int, gv *ig.Graph) *obs.RegionColored {
	ev := &obs.RegionColored{
		Func: fn, Region: V.ID, RegionKind: V.Kind.String(),
		Iter: iter, Nodes: gv.NumNodes(),
	}
	colors := map[int]bool{}
	for _, n := range gv.Nodes() {
		colors[n.Color] = true
		for _, r := range n.Regs {
			ev.Assigned = append(ev.Assigned, obs.RegColor{Reg: r.String(), Color: n.Color})
		}
	}
	ev.Colors = len(colors)
	return ev
}

// --- region-level facts ---

// ownIndices returns the instruction indices owned directly by V.
func (a *allocator) ownIndices(V *ir.Region) []int {
	span := a.spans[V.ID]
	var out []int
	for i := span.Start; i < span.End; i++ {
		if a.f.Instrs[i].Region == V.ID {
			out = append(out, i)
		}
	}
	return out
}

// refsAt appends the registers referenced (used or defined) by instruction
// i, one entry per occurrence.
func (a *allocator) refsAt(i int, buf []ir.Reg) []ir.Reg {
	in := a.f.Instrs[i]
	buf = in.Uses(buf)
	if d := in.Def(); d != ir.None {
		buf = append(buf, d)
	}
	return buf
}

// refsInSpan counts, for every register, its references within span.
// The counter comes from the allocator's scratch pool; the caller
// returns it with putCounts when done.
func (a *allocator) refsInSpan(span ir.Span) *regCounts {
	counts := a.scratch.getCounts()
	var buf []ir.Reg
	for i := span.Start; i < span.End; i++ {
		buf = a.refsAt(i, buf[:0])
		for _, r := range buf {
			counts.inc(r)
		}
	}
	return counts
}

// globalTo reports whether r has references outside span — the paper's
// "global to the region" (§3.1: a register is local to a region if all its
// references are inside).
func (a *allocator) globalTo(r ir.Reg, inSpan *regCounts) bool {
	return a.totalRefs[r] > inSpan.get(r)
}

// emptyRegSet is the shared read-only set empty regions borrow.
var emptyRegSet bitset.Set

// liveAtEntry returns the registers live on entrance to region V. MiniC
// regions are single-entry intervals, so this is the live-in set of the
// first instruction — borrowed straight from the liveness analysis.
// Callers must treat the set as read-only.
func (a *allocator) liveAtEntry(V *ir.Region) *bitset.Set {
	span := a.spans[V.ID]
	if span.Empty() {
		return &emptyRegSet
	}
	return a.lv.LiveIn[span.Start]
}

// liveAtExit returns the registers live on some edge leaving region V.
// The set comes from the allocator's scratch pool; the caller returns it
// with putSet when done.
func (a *allocator) liveAtExit(V *ir.Region) *bitset.Set {
	span := a.spans[V.ID]
	out := a.scratch.getSet()
	for i := span.Start; i < span.End; i++ {
		for _, s := range a.g.InstrSuccs[i] {
			if !span.Contains(s) {
				out.UnionWith(a.lv.LiveIn[s])
			}
		}
	}
	return out
}

// usedIn / definedIn report use/def presence within a span. Both sets
// come from the scratch pool and go back via putSet.
func (a *allocator) usedIn(span ir.Span) *bitset.Set {
	out := a.scratch.getSet()
	var buf []ir.Reg
	for i := span.Start; i < span.End; i++ {
		buf = a.f.Instrs[i].Uses(buf[:0])
		for _, u := range buf {
			out.Add(int(u))
		}
	}
	return out
}

func (a *allocator) definedIn(span ir.Span) *bitset.Set {
	out := a.scratch.getSet()
	for i := span.Start; i < span.End; i++ {
		if d := a.f.Instrs[i].Def(); d != ir.None {
			out.Add(int(d))
		}
	}
	return out
}

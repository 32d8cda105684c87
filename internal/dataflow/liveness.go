// Package dataflow implements the dataflow analyses the allocators rely
// on: per-instruction liveness and def-use (reaching definition) chains.
package dataflow

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds per-instruction live register sets.
// Registers are indexed by their integer value; index 0 (ir.None) is never
// set.
type Liveness struct {
	// LiveIn[i] is the set of registers live immediately before
	// instruction i executes.
	LiveIn []*bitset.Set
	// LiveOut[i] is the set of registers live immediately after
	// instruction i executes.
	LiveOut []*bitset.Set
	// NumRegs is the register index capacity of the sets.
	NumRegs int
}

// ComputeLiveness computes per-instruction liveness for g's function: a
// block-level backward dataflow fixpoint (UEVar/Kill summaries per basic
// block) followed by one backward sweep inside each block to fill the
// per-instruction sets.
func ComputeLiveness(g *cfg.Graph) *Liveness {
	return ComputeLivenessCap(g, 0)
}

// ComputeLivenessCap is ComputeLiveness with per-instruction sets sized
// for at least capRegs registers, so a caller that adds registers later
// can record their liveness in place (see Reflow).
func ComputeLivenessCap(g *cfg.Graph, capRegs int) *Liveness {
	f := g.F
	n := len(f.Instrs)
	numRegs := int(f.NextReg)
	capRegs = max(numRegs, capRegs)
	batch := bitset.NewBatch(2*n, capRegs)
	lv := &Liveness{
		LiveIn:  batch[:n],
		LiveOut: batch[n:],
		NumRegs: capRegs,
	}
	// Precompute use/def per instruction. The per-instruction use lists
	// are slices of one flat arena (grown by appending each instruction's
	// uses in order) instead of n separate allocations.
	uses := make([][]ir.Reg, n)
	defs := make([]ir.Reg, n)
	offs := make([]int32, n+1)
	var flat []ir.Reg
	for i, in := range f.Instrs {
		flat = in.Uses(flat)
		offs[i+1] = int32(len(flat))
		defs[i] = in.Def()
	}
	for i := range uses {
		uses[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
	}
	nb := len(g.Blocks)
	if nb == 0 {
		return lv
	}
	// Block summaries: ueVar (used before any local kill) and kill.
	bbatch := bitset.NewBatch(4*nb, numRegs)
	ueVar := bbatch[:nb]
	kill := bbatch[nb : 2*nb]
	blockIn := bbatch[2*nb : 3*nb]
	blockOut := bbatch[3*nb:]
	for b, blk := range g.Blocks {
		for i := blk.Start; i < blk.End; i++ {
			for _, u := range uses[i] {
				if !kill[b].Has(int(u)) {
					ueVar[b].Add(int(u))
				}
			}
			if d := defs[i]; d != ir.None {
				kill[b].Add(int(d))
			}
		}
	}
	// Fixpoint over blocks, postorder (reverse of RPO) for fast
	// convergence on reducible graphs.
	rpo := g.ReversePostorder()
	tmp := bitset.New(numRegs)
	for changed := true; changed; {
		changed = false
		for idx := len(rpo) - 1; idx >= 0; idx-- {
			b := rpo[idx]
			tmp.Clear()
			for _, s := range g.Blocks[b].Succs {
				tmp.UnionWith(blockIn[s])
			}
			if !tmp.Equal(blockOut[b]) {
				blockOut[b].Copy(tmp)
				changed = true
			}
			// in = ueVar ∪ (out − kill)
			tmp.DiffWith(kill[b])
			tmp.UnionWith(ueVar[b])
			if !tmp.Equal(blockIn[b]) {
				blockIn[b].Copy(tmp)
				changed = true
			}
		}
	}
	// Fill per-instruction sets with one backward sweep per block (Copy
	// leaves any spare capacity words zero).
	for b, blk := range g.Blocks {
		tmp.Copy(blockOut[b])
		for i := blk.End - 1; i >= blk.Start; i-- {
			lv.LiveOut[i].Copy(tmp)
			if d := defs[i]; d != ir.None {
				tmp.Remove(int(d))
			}
			for _, u := range uses[i] {
				tmp.Add(int(u))
			}
			lv.LiveIn[i].Copy(tmp)
		}
	}
	return lv
}

// Forget removes register r from every set by a backward walk from its
// use sites over g, the graph the sets describe, so the cost is the size
// of r's live range rather than of the function. It returns stack, as
// scratch space for reuse.
func (lv *Liveness) Forget(g *cfg.Graph, r ir.Reg, uses, stack []int) []int {
	ri := int(r)
	stack = stack[:0]
	for _, u := range uses {
		if lv.LiveIn[u].Has(ri) {
			lv.LiveIn[u].Remove(ri)
			stack = append(stack, u)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InstrPreds[i] {
			lv.LiveOut[p].Remove(ri)
			if lv.LiveIn[p].Has(ri) {
				lv.LiveIn[p].Remove(ri)
				stack = append(stack, p)
			}
		}
	}
	return stack
}

// Reflow recomputes register r's liveness from its use sites (ascending
// or not) by a backward walk over g's predecessor edges that stops at
// definitions of r. r's bit must be clear in every set beforehand and
// below NumRegs. Liveness is a per-register least fixpoint, so the result
// is exactly what ComputeLiveness gives for r on g. stack is scratch
// space, returned for reuse.
func (lv *Liveness) Reflow(g *cfg.Graph, r ir.Reg, uses, stack []int) []int {
	ri := int(r)
	stack = stack[:0]
	for _, u := range uses {
		if !lv.LiveIn[u].Has(ri) {
			lv.LiveIn[u].Add(ri)
			stack = append(stack, u)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.InstrPreds[i] {
			lv.LiveOut[p].Add(ri)
			if lv.LiveIn[p].Has(ri) || g.F.Instrs[p].Def() == r {
				continue
			}
			lv.LiveIn[p].Add(ri)
			stack = append(stack, p)
		}
	}
	return stack
}

// DefUse records, for every register, where it is defined and used, and
// answers which uses each definition reaches. Reaching sets are computed
// lazily per definition (the allocator only ever asks about the handful
// of registers it spills) and memoized.
type DefUse struct {
	// Defs[r] lists, ascending, the instruction indices that define
	// register r. It is indexed by register and covers every register
	// below the function's NextReg and every register the body mentions.
	Defs [][]int
	// Uses[r] lists, ascending, the instruction indices that use
	// register r, indexed like Defs.
	Uses [][]int

	g       *cfg.Graph
	usesAt  [][]ir.Reg
	defAt   []ir.Reg
	reached map[defKey][]int
	// visited/gen implement O(1) per-query reset: a slot is visited in
	// the current walk iff visited[i] == gen. Bumping gen invalidates
	// every slot without touching the slice.
	visited []int32
	gen     int32
}

type defKey struct {
	Instr int
	Reg   ir.Reg
}

// ComputeDefUse builds def/use site tables for g's function in two
// linear scans; reaching queries walk the CFG on demand.
func ComputeDefUse(g *cfg.Graph) *DefUse {
	f := g.F
	n := len(f.Instrs)
	du := &DefUse{
		g:       g,
		usesAt:  make([][]ir.Reg, n),
		defAt:   make([]ir.Reg, n),
		reached: map[defKey][]int{},
		visited: make([]int32, n),
	}
	// The deduplicated per-instruction use lists are slices of one flat
	// arena rather than n separate allocations.
	offs := make([]int32, n+1)
	nregs := int(f.NextReg)
	var flat, buf []ir.Reg
	for i, in := range f.Instrs {
		buf = in.Uses(buf[:0])
		start := len(flat)
		for _, u := range buf {
			dup := false
			for _, prev := range flat[start:] {
				if prev == u {
					dup = true
					break
				}
			}
			if !dup {
				flat = append(flat, u)
				nregs = max(nregs, int(u)+1)
			}
		}
		offs[i+1] = int32(len(flat))
		du.defAt[i] = in.Def()
		nregs = max(nregs, int(du.defAt[i])+1)
	}
	for i := range du.usesAt {
		du.usesAt[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
	}
	// Site lists are capacity-limited windows of one arena: count each
	// register's sites, carve the windows, then fill them in instruction
	// order.
	nDefs := make([]int32, nregs)
	nUses := make([]int32, nregs)
	for i := 0; i < n; i++ {
		if d := du.defAt[i]; d != ir.None {
			nDefs[d]++
		}
		for _, u := range du.usesAt[i] {
			nUses[u]++
		}
	}
	sites := make([]int, 0, n+len(flat))
	du.Defs = make([][]int, nregs)
	du.Uses = make([][]int, nregs)
	carve := func(cnt int32) []int {
		at := len(sites)
		sites = sites[:at+int(cnt)]
		return sites[at : at : at+int(cnt)]
	}
	for r := 0; r < nregs; r++ {
		if nDefs[r] > 0 {
			du.Defs[r] = carve(nDefs[r])
		}
		if nUses[r] > 0 {
			du.Uses[r] = carve(nUses[r])
		}
	}
	for i := 0; i < n; i++ {
		if d := du.defAt[i]; d != ir.None {
			du.Defs[d] = append(du.Defs[d], i)
		}
		for _, u := range du.usesAt[i] {
			du.Uses[u] = append(du.Uses[u], i)
		}
	}
	return du
}

// ReachedUses returns the uses reached by the definition of r at
// instruction d: a forward reachability walk from d that stops at
// redefinitions of r. Results are memoized.
func (du *DefUse) ReachedUses(d int, r ir.Reg) []int {
	key := defKey{d, r}
	if got, ok := du.reached[key]; ok {
		return got
	}
	du.gen++
	usesReg := func(i int) bool {
		for _, u := range du.usesAt[i] {
			if u == r {
				return true
			}
		}
		return false
	}
	var reached []int
	stack := append([]int(nil), du.g.InstrSuccs[d]...)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if usesReg(i) {
			reached = append(reached, i)
		}
		if du.defAt[i] == r {
			continue // killed; do not flow past
		}
		stack = append(stack, du.g.InstrSuccs[i]...)
	}
	sort.Ints(reached)
	du.reached[key] = reached
	return reached
}

// ReachedUsesFrom returns, ascending, the uses of r reached by any of
// the definitions at defs: the union of their ReachedUses. Reachability
// stops at definitions of r whichever walk meets them, so one walk from
// all the definitions at once finds the union.
func (du *DefUse) ReachedUsesFrom(defs []int, r ir.Reg) []int {
	du.gen++
	var stack, reached []int
	for _, d := range defs {
		stack = append(stack, du.g.InstrSuccs[d]...)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if du.visited[i] == du.gen {
			continue
		}
		du.visited[i] = du.gen
		if slices.Contains(du.usesAt[i], r) {
			reached = append(reached, i)
		}
		if du.defAt[i] != r {
			stack = append(stack, du.g.InstrSuccs[i]...)
		}
	}
	slices.Sort(reached)
	return reached
}

// DefsReaching returns, ascending, the definitions of r that reach any of
// uses: every d whose ReachedUses(d, r) meets uses. It walks backward from
// the uses through instructions that do not define r, so its cost is one
// pass over the function however many definitions r has.
func (du *DefUse) DefsReaching(uses []int, r ir.Reg) []int {
	du.gen++
	var defs []int
	stack := append([]int(nil), uses...)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range du.g.InstrPreds[i] {
			if du.visited[p] == du.gen {
				continue
			}
			du.visited[p] = du.gen
			if du.defAt[p] == r {
				defs = append(defs, p)
			} else {
				stack = append(stack, p)
			}
		}
	}
	slices.Sort(defs)
	return defs
}

// DefReachesUseOutside reports whether the definition of r at instruction
// d reaches any use at an instruction for which outside returns true.
func (du *DefUse) DefReachesUseOutside(d int, r ir.Reg, outside func(int) bool) bool {
	for _, u := range du.ReachedUses(d, r) {
		if outside(u) {
			return true
		}
	}
	return false
}

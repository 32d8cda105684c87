package rap

import (
	"sort"

	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// insertSpillCode implements §3.1.4. For each spilled register v of region
// V:
//
//   - in V's own intermediate code, a load is placed before every use and
//     a store after every definition, and v is renamed;
//   - in each subregion that references v, v is renamed (making it
//     completely local to the subregion), a load is placed at the
//     subregion's first use if v is live on entrance, and a store is
//     placed after each definition whose value is used outside the
//     subregion;
//   - outside the region, the fixup is recursive: every definition that
//     reaches a spilled use gets a store, and every use reached by a
//     spilled definition gets a load (so that each stored definition has a
//     load before its uses and each loaded use has stores after its
//     definitions).
func (a *allocator) insertSpillCode(V *ir.Region, spilledNodes []*ig.Node) error {
	stop := a.opts.Trace.StartTimer("rap.phase.spill")
	// The first spill edit ends memoization for this function: region
	// contents are about to diverge from their fingerprints.
	a.memoDisable()
	span := a.spans[V.ID]
	edit := regalloc.NewEdit()
	rec := a.spilledIn[V.ID]
	if rec == nil {
		rec = map[ir.Reg]bool{}
		a.spilledIn[V.ID] = rec
	}
	// Positions refer to the pre-edit list until the edit applies, so
	// V's own instructions are found once per round.
	own := a.ownIndices(V)
	oldNext, remats := a.f.NextReg, a.stats.Rematerialized
	var spilled []ir.Reg
	// Deterministic order: nodes as reported by the colourer, members
	// ascending.
	for _, n := range spilledNodes {
		for _, v := range append([]ir.Reg(nil), n.Regs...) {
			a.spillReg(V, span, own, v, edit)
			rec[a.sp.Origin(v)] = true
			a.stats.RegsSpilled++
			spilled = append(spilled, v)
		}
	}
	edit.Apply(a.f)
	stop()
	// Rematerialization rewrites and deletes instructions across the
	// function, and the liveness sets have room for only so many new
	// registers: both take the full rebuild.
	if a.stats.Rematerialized != remats || int(a.f.NextReg) > a.lv.NumRegs {
		return a.reanalyze()
	}
	return a.patchAnalysis(edit, spilled, oldNext)
}

// storeAfter/loadBefore build spill instructions adjacent to instruction
// idx, inheriting its region so region spans stay contiguous.
func (a *allocator) storeAfter(edit *regalloc.Edit, idx int, src ir.Reg, slot int64) {
	edit.InsertAfter(idx, &ir.Instr{
		Op: ir.OpStSpill, Src1: src, Imm: slot, Region: a.f.Instrs[idx].Region,
	})
}

func (a *allocator) loadBefore(edit *regalloc.Edit, idx int, dst ir.Reg, slot int64) {
	edit.InsertBefore(idx, &ir.Instr{
		Op: ir.OpLdSpill, Imm: slot, Dst: dst, Region: a.f.Instrs[idx].Region,
	})
}

func (a *allocator) spillReg(V *ir.Region, span ir.Span, own []int, v ir.Reg, edit *regalloc.Edit) {
	// Extension: a rematerializable victim is recomputed at its uses
	// instead of travelling through a spill slot. The rewrite is global
	// (v disappears from the function), so every saved subregion summary
	// renames v to the replacement register.
	if a.opts.Rematerialize {
		if proto, ok := regalloc.RematProto(a.f, v); ok {
			vn := regalloc.RematerializeReg(a.f, a.sp, v, proto, edit)
			for _, gs := range a.graphs {
				gs.RenameReg(v, vn)
			}
			a.stats.Rematerialized++
			return
		}
	}
	slot := a.sp.SlotOf(v)

	// Gather v's reference sites before any renaming.
	defsOfV := append([]int(nil), a.du.Defs[v]...)
	usesOfV := append([]int(nil), a.du.Uses[v]...)

	// --- V's own code: load before each use, store after each def,
	// rename (§3.1.4 first step). ---
	var vP ir.Reg = ir.None
	ensureVP := func() ir.Reg {
		if vP == ir.None {
			vP = a.f.NewReg()
			a.sp.Rename(v, vP)
		}
		return vP
	}
	for _, i := range own {
		in := a.f.Instrs[i]
		usedHere := false
		in.RewriteUses(func(r ir.Reg) ir.Reg {
			if r != v {
				return r
			}
			usedHere = true
			return ensureVP()
		})
		if usedHere {
			a.loadBefore(edit, i, vP, slot)
		}
		if in.Def() == v {
			in.SetDef(ensureVP())
			a.storeAfter(edit, i, vP, slot)
		}
	}

	// --- Subregions (§3.1.4 second step). ---
	for _, s := range V.Children {
		sspan := a.spans[s.ID]
		if sspan.Empty() {
			continue
		}
		var refIdx []int
		usedInSub := false
		for _, u := range usesOfV {
			if sspan.Contains(u) {
				refIdx = append(refIdx, u)
				usedInSub = true
			}
		}
		var subDefs []int
		for _, d := range defsOfV {
			if sspan.Contains(d) {
				refIdx = append(refIdx, d)
				subDefs = append(subDefs, d)
			}
		}
		if len(refIdx) == 0 {
			continue
		}
		sort.Ints(refIdx)
		// Rename v throughout the subregion, and in its summary graph so
		// the next build of V's graph sees the new name.
		vR := a.f.NewReg()
		a.sp.Rename(v, vR)
		if gs := a.graphs[s.ID]; gs != nil {
			gs.RenameReg(v, vR)
		}
		for i := sspan.Start; i < sspan.End; i++ {
			in := a.f.Instrs[i]
			in.RewriteUses(func(r ir.Reg) ir.Reg {
				if r == v {
					return vR
				}
				return r
			})
			if in.Def() == v {
				in.SetDef(vR)
			}
		}
		// Load at the subregion's entrance if v is live into it. For a
		// loop subregion the entrance is *before* the loop header label,
		// so the load executes once on entry and the register carries the
		// value around the back edge — the paper's "load before the first
		// use in the subregion".
		pos, reexecutes := a.subregionEntryPos(sspan)
		if usedInSub && a.liveAtEntry(s).Has(int(v)) {
			a.loadBefore(edit, pos, vR, slot)
		}
		// Store after each definition whose value is needed outside the
		// subregion. "Outside" includes the loop-around case where the
		// value leaves the region and re-enters through the boundary
		// load, so the test is whether the definition's value is live on
		// any edge leaving the span. If the entry load can re-execute on
		// an internal jump (irreducible placement), every definition must
		// keep the slot current.
		for _, d := range subDefs {
			if reexecutes || a.defEscapes(d, v, sspan) {
				a.storeAfter(edit, d, vR, slot)
			}
		}
	}

	// --- Recursive fixup outside the region. ---
	// Uses outside V reached by definitions inside V must load from the
	// slot (the in-region value now flows through memory only).
	var inDefs, inUses, loads []int
	for _, d := range defsOfV {
		if span.Contains(d) {
			inDefs = append(inDefs, d)
		}
	}
	for _, u := range a.du.ReachedUsesFrom(inDefs, v) {
		if !span.Contains(u) {
			loads = append(loads, u)
		}
	}
	// Every definition outside V whose value flows into the region or
	// into a loaded use must store (in-region definitions already got
	// stores).
	for _, u := range usesOfV {
		if span.Contains(u) {
			inUses = append(inUses, u)
		}
	}
	for _, d := range a.du.DefsReaching(append(inUses, loads...), v) {
		if !span.Contains(d) {
			a.storeAfter(edit, d, v, slot)
		}
	}
	for _, u := range loads {
		a.loadBefore(edit, u, v, slot)
	}
}

// defEscapes reports whether the value defined for v at instruction d is
// live on some edge leaving span: it walks forward from d, stopping at
// redefinitions of v, and checks liveness of v at the first instruction
// reached outside the span.
func (a *allocator) defEscapes(d int, v ir.Reg, span ir.Span) bool {
	if len(a.visited) < len(a.f.Instrs) {
		a.visited = make([]int32, len(a.f.Instrs))
		a.visitGen = 0
	}
	a.visitGen++
	stack := append(a.walk[:0], a.g.InstrSuccs[d]...)
	defer func() { a.walk = stack }()
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.visited[j] == a.visitGen {
			continue
		}
		a.visited[j] = a.visitGen
		if !span.Contains(j) {
			if a.lv.LiveIn[j].Has(int(v)) {
				return true
			}
			continue // v dead on this path; prune
		}
		if a.f.Instrs[j].Def() == v {
			continue // killed
		}
		stack = append(stack, a.g.InstrSuccs[j]...)
	}
	return false
}

// subregionEntryPos finds where code that must run exactly once on entry
// to the subregion belongs. Leading labels are classified by who jumps to
// them:
//
//   - a label targeted only from inside the span (a loop header entered by
//     fall-through) — entry code goes *before* it, so back edges skip it;
//   - a label targeted only from outside (a branch target like an if arm)
//     — entry code goes after it;
//   - a label targeted from both sides has no single safe point; the
//     position after it is returned with reexecutes=true so callers can
//     compensate.
func (a *allocator) subregionEntryPos(sspan ir.Span) (pos int, reexecutes bool) {
	// Spill rounds rename registers in place and apply their insertions
	// only at the end, so one index serves every call of a round.
	if a.jumpers == nil {
		a.jumpers = a.labelJumpers()
	}
	pos = sspan.Start
	for pos < sspan.End && a.f.Instrs[pos].Op == ir.OpLabel {
		internal, external := false, false
		for _, j := range a.jumpers[a.f.Instrs[pos].Label] {
			if sspan.Contains(j) {
				internal = true
			} else {
				external = true
			}
		}
		switch {
		case internal && !external:
			return pos, false
		case internal && external:
			return pos + 1, true
		default:
			pos++ // external-only or untargeted label: step past it
		}
	}
	return pos, false
}

// labelJumpers maps each label to the indices of branch instructions
// targeting it.
func (a *allocator) labelJumpers() map[string][]int {
	m := map[string][]int{}
	for i, in := range a.f.Instrs {
		switch in.Op {
		case ir.OpJump:
			m[in.Label] = append(m[in.Label], i)
		case ir.OpCBr:
			m[in.Label] = append(m[in.Label], i)
			m[in.Label2] = append(m[in.Label2], i)
		}
	}
	return m
}

package rap

import (
	"repro/internal/ig"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// buildRegionGraph constructs the interference graph for region V in the
// paper's two steps: add_region_conflicts over V's own statements and
// add_subregion_conflicts (Fig. 4) to incorporate the subregions' combined
// graphs.
func (a *allocator) buildRegionGraph(V *ir.Region) *ig.Graph {
	gv := ig.New()
	span := a.spans[V.ID]
	own := a.ownIndices(V)

	// --- add_region_conflicts ---
	// Nodes: every register referenced by a statement the region owns
	// directly. Registers merely live through the region are deliberately
	// omitted so referenced registers get colouring priority (§3.1.1).
	// ownRefs is scratch (a bitset's ForEach ascends, preserving the
	// sorted-iteration determinism the old map needed sortRegs for).
	ownRefs := a.scratch.getSet()
	defer a.scratch.putSet(ownRefs)
	var buf []ir.Reg
	for _, i := range own {
		buf = a.refsAt(i, buf[:0])
		for _, r := range buf {
			ownRefs.Add(int(r))
		}
	}
	ownRefs.ForEach(func(ri int) { gv.Ensure(ir.Reg(ri)) })
	// Standard interferences at definition points in V's own code,
	// restricted to own-referenced registers. A copy's destination does
	// not interfere with its source (the rule that enables copy
	// elimination under first-fit colouring).
	for _, i := range own {
		in := a.f.Instrs[i]
		d := in.Def()
		if d == ir.None || !ownRefs.Has(int(d)) {
			continue
		}
		copySrc := ir.None
		if in.IsCopy() {
			copySrc = in.Src1
		}
		a.lv.LiveOut[i].ForEach(func(ri int) {
			r := ir.Reg(ri)
			if r == d || r == copySrc || !ownRefs.Has(ri) {
				return
			}
			gv.AddEdge(d, r)
		})
	}
	// RAP's extra rule: any two registers live on entrance to the region
	// and referenced in the region's own code interfere (§3.1.1).
	liveIn := a.liveAtEntry(V)
	var liveInOwn []ir.Reg
	ownRefs.ForEach(func(ri int) {
		if liveIn.Has(ri) {
			liveInOwn = append(liveInOwn, ir.Reg(ri))
		}
	})
	for i := 0; i < len(liveInOwn); i++ {
		for j := i + 1; j < len(liveInOwn); j++ {
			gv.AddEdge(liveInOwn[i], liveInOwn[j])
		}
	}

	// --- add_subregion_conflicts (Fig. 4) ---
	subs := V.Children
	// Vars: registers referenced in V's own code or present in a
	// subregion's summary graph.
	vars := a.scratch.getSet()
	defer a.scratch.putSet(vars)
	vars.UnionWith(ownRefs)
	for _, s := range subs {
		if gs := a.graphs[s.ID]; gs != nil {
			for _, n := range gs.NodesByID() {
				for _, r := range n.Regs {
					vars.Add(int(r))
				}
			}
		}
	}
	// Step 1: a register referenced only in subregions but live on
	// entrance to V interferes with everything referenced in V's own
	// code.
	parentNodes := gv.Nodes()
	vars.ForEach(func(ri int) {
		vk := ir.Reg(ri)
		if ownRefs.Has(ri) || !liveIn.Has(ri) {
			return
		}
		nk := gv.Ensure(vk)
		for _, n := range parentNodes {
			gv.AddNodeEdge(nk, n)
		}
	})
	// Step 2: incorporate each subregion's combined graph.
	for _, s := range subs {
		gs := a.graphs[s.ID]
		if gs == nil || gs.NumNodes() == 0 {
			continue
		}
		// Merge the subregion's nodes into gv. A subregion node may hold
		// several registers that were combined (allocated one register
		// within the subregion); they stay together at the parent level.
		for _, n := range gs.Nodes() {
			target := gv.Ensure(n.Regs[0])
			for _, r := range n.Regs[1:] {
				gv.AddRegToNode(target, r)
			}
		}
		// Resolve a subregion node to its (possibly merged) image in gv.
		resolve := func(n *ig.Node) *ig.Node { return gv.NodeOf(n.Regs[0]) }
		// Subregion edges carry over.
		for _, n := range gs.Nodes() {
			rn := resolve(n)
			n.ForEachAdj(func(adj *ig.Node) {
				gv.AddNodeEdge(rn, resolve(adj))
			})
		}
		// Fig. 4's live-in rule: a register live on entrance to the
		// subregion but not referenced in it interferes with every node
		// of the subregion's graph.
		liveInSub := a.liveAtEntry(s)
		vars.ForEach(func(ri int) {
			vk := ir.Reg(ri)
			if gs.NodeOf(vk) != nil || !liveInSub.Has(ri) {
				return
			}
			nk := gv.Ensure(vk)
			for _, n := range gs.Nodes() {
				gv.AddNodeEdge(nk, resolve(n))
			}
		})
	}

	// Mark nodes containing a register global to V (referenced outside
	// the region): these may never share a colour with another global
	// node (§3.1.3).
	inSpan := a.refsInSpan(span)
	defer a.scratch.putCounts(inSpan)
	for _, n := range gv.Nodes() {
		n.Global = false
		for _, r := range n.Regs {
			if a.globalTo(r, inSpan) {
				n.Global = true
				break
			}
		}
	}
	// Optional §5 extension: conservative coalescing of copies inside
	// this region's span. Never merges two global nodes.
	if a.opts.Coalesce && !span.Empty() {
		a.stats.Coalesced += regalloc.CoalesceConservative(a.f.Instrs[span.Start:span.End], gv, a.k, true, nil)
	}
	return gv
}

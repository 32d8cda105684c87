// Package cfg builds control-flow graphs — at both instruction and basic
// block granularity — and dominance information over IR functions.
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Graph is the control-flow graph of one function.
type Graph struct {
	F *ir.Function

	// InstrSuccs[i] lists the instruction indices control may reach
	// immediately after instruction i executes.
	InstrSuccs [][]int
	// InstrPreds is the reverse of InstrSuccs.
	InstrPreds [][]int

	// Blocks partitions the instructions into basic blocks.
	Blocks []*Block
	// BlockOf[i] is the index of the block containing instruction i.
	BlockOf []int
}

// Block is a basic block: the half-open instruction range [Start, End).
type Block struct {
	ID         int
	Start, End int
	Succs      []int // successor block IDs
	Preds      []int // predecessor block IDs
}

// Build constructs the CFG for f. It returns an error if a branch targets
// an unknown label. The edge lists are capacity-limited windows of shared
// arenas, so building costs a handful of allocations whatever the size.
func Build(f *ir.Function) (*Graph, error) {
	g := &Graph{F: f}
	n := len(f.Instrs)
	labels := f.LabelIndex()
	g.InstrSuccs = make([][]int, n)
	g.InstrPreds = make([][]int, n)
	// A successor list has at most two entries.
	succs := make([]int, 0, 2*n)
	npreds := make([]int32, n)
	for i, in := range f.Instrs {
		at := len(succs)
		switch in.Op {
		case ir.OpJump:
			t, ok := labels[in.Label]
			if !ok {
				return nil, fmt.Errorf("%s: jump to unknown label %q", f.Name, in.Label)
			}
			succs = append(succs, t)
		case ir.OpCBr:
			t1, ok1 := labels[in.Label]
			t2, ok2 := labels[in.Label2]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: cbr to unknown label %q/%q", f.Name, in.Label, in.Label2)
			}
			succs = append(succs, t1)
			if t1 != t2 {
				succs = append(succs, t2)
			}
		case ir.OpRet:
			// no successors
		default:
			if i+1 < n {
				succs = append(succs, i+1)
			}
		}
		if len(succs) > at {
			g.InstrSuccs[i] = succs[at:len(succs):len(succs)]
			for _, t := range g.InstrSuccs[i] {
				npreds[t]++
			}
		}
	}
	preds := make([]int, len(succs))
	at := 0
	for i, c := range npreds {
		if c > 0 {
			g.InstrPreds[i] = preds[at : at : at+int(c)]
			at += int(c)
		}
	}
	for i, ss := range g.InstrSuccs {
		for _, s := range ss {
			g.InstrPreds[s] = append(g.InstrPreds[s], i)
		}
	}
	g.buildBlocks()
	return g, nil
}

func (g *Graph) buildBlocks() {
	n := len(g.F.Instrs)
	if n == 0 {
		return
	}
	leader := make([]bool, n)
	leader[0] = true
	nb := 1
	for i, in := range g.F.Instrs {
		if in.Op == ir.OpLabel && i > 0 && !leader[i] {
			leader[i] = true
			nb++
		}
		if in.IsBranch() && i+1 < n && !leader[i+1] {
			leader[i+1] = true
			nb++
		}
	}
	blocks := make([]Block, 0, nb)
	g.Blocks = make([]*Block, 0, nb)
	g.BlockOf = make([]int, n)
	for i := 0; i < n; i++ {
		if leader[i] {
			blocks = append(blocks, Block{ID: len(blocks), Start: i})
			g.Blocks = append(g.Blocks, &blocks[len(blocks)-1])
		}
		cur := g.Blocks[len(g.Blocks)-1]
		cur.End = i + 1
		g.BlockOf[i] = cur.ID
	}
	// Block edges come from the last instruction's successors plus
	// fallthrough (which InstrSuccs already covers); a last instruction
	// has at most two successors, so duplicates are checked pairwise.
	edges := make([]int, 0, 2*nb)
	for _, b := range g.Blocks {
		at := len(edges)
		for _, s := range g.InstrSuccs[b.End-1] {
			if sb := g.BlockOf[s]; !slices.Contains(edges[at:], sb) {
				edges = append(edges, sb)
			}
		}
		if len(edges) > at {
			b.Succs = edges[at:len(edges):len(edges)]
		}
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, b.ID)
		}
	}
}

// ReversePostorder returns block IDs in reverse postorder from the entry
// block. Unreachable blocks are appended at the end in ID order.
func (g *Graph) ReversePostorder() []int {
	n := len(g.Blocks)
	visited := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(0)
	}
	out := make([]int, 0, n)
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for b := 0; b < n; b++ {
		if !visited[b] {
			out = append(out, b)
		}
	}
	return out
}

// Dominators computes the immediate dominator of every reachable block
// using the Cooper/Harvey/Kennedy iterative algorithm. idom[entry] = entry;
// unreachable blocks get idom -1.
func (g *Graph) Dominators() []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	rpo := g.ReversePostorder()
	order := make([]int, n) // block -> rpo position
	for pos, b := range rpo {
		order[b] = pos
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// PostDominators computes immediate postdominators over the reverse CFG
// with a virtual exit node. The virtual exit has ID len(Blocks); every
// block with no successors (and, to handle infinite loops, every block
// unreachable in the reverse traversal) is attached to it. The returned
// slice has len(Blocks)+1 entries; ipdom[virtualExit] = virtualExit.
func (g *Graph) PostDominators() []int {
	n := len(g.Blocks)
	exit := n
	// Reverse graph adjacency.
	rsucc := make([][]int, n+1) // reverse successors = original preds
	rpred := make([][]int, n+1) // reverse preds = original succs
	for _, b := range g.Blocks {
		if len(b.Succs) == 0 {
			rsucc[exit] = append(rsucc[exit], b.ID)
			rpred[b.ID] = append(rpred[b.ID], exit)
		}
		for _, s := range b.Succs {
			rsucc[s] = append(rsucc[s], b.ID)
			rpred[b.ID] = append(rpred[b.ID], s)
		}
	}
	// Postorder from virtual exit over the reverse graph. Blocks that
	// cannot reach any exit (infinite loops) are attached to the virtual
	// exit directly so every block gets a postdominator.
	visited := make([]bool, n+1)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range rsucc[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(exit)
	for b := 0; b < n; b++ {
		if !visited[b] && (b == 0 || len(g.Blocks[b].Preds) > 0) {
			rsucc[exit] = append(rsucc[exit], b)
			rpred[b] = append(rpred[b], exit)
			post = nil
			for i := range visited {
				visited[i] = false
			}
			dfs(exit)
		}
	}
	rpo := make([]int, 0, n+1)
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	order := make([]int, n+1)
	for i := range order {
		order[i] = -1
	}
	for pos, b := range rpo {
		order[b] = pos
	}
	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = ipdom[a]
			}
			for order[b] > order[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == exit {
				continue
			}
			newI := -1
			for _, p := range rpred[b] {
				if order[p] == -1 || ipdom[p] == -1 {
					continue
				}
				if newI == -1 {
					newI = p
				} else {
					newI = intersect(newI, p)
				}
			}
			if newI != -1 && ipdom[b] != newI {
				ipdom[b] = newI
				changed = true
			}
		}
	}
	return ipdom
}

// DominatorSets materializes, for each block, the set of blocks dominating
// it (including itself), derived from the idom tree. Unreachable blocks
// get nil.
func (g *Graph) DominatorSets() []map[int]bool {
	idom := g.Dominators()
	out := make([]map[int]bool, len(g.Blocks))
	for b := range g.Blocks {
		if idom[b] == -1 && b != 0 {
			continue
		}
		set := map[int]bool{b: true}
		for d := b; d != 0; d = idom[d] {
			if idom[d] == -1 {
				break
			}
			set[idom[d]] = true
		}
		out[b] = set
	}
	return out
}

// InstrDominates reports whether instruction i dominates instruction j:
// every path from entry to j passes through i.
func (g *Graph) InstrDominates(domSets []map[int]bool, i, j int) bool {
	bi, bj := g.BlockOf[i], g.BlockOf[j]
	if bi == bj {
		return i <= j
	}
	if domSets[bj] == nil {
		return false
	}
	return domSets[bj][bi]
}

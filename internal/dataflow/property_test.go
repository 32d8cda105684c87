package dataflow_test

// Property-based tests: on randomly generated (compilable, structured)
// programs, the dataflow results must satisfy their defining equations.

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

func randomFunctions(t *testing.T, seed int64) []*ir.Function {
	t.Helper()
	src := randprog.Generate(seed%97, randprog.DefaultConfig())
	p, err := testutil.Compile(src, lower.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return p.Funcs
}

// TestLivenessIsFixpoint: LiveOut(i) = ∪ LiveIn(succ) and
// LiveIn(i) = uses(i) ∪ (LiveOut(i) − def(i)) hold at every instruction.
func TestLivenessIsFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			lv := dataflow.ComputeLiveness(g)
			tmp := bitset.New(lv.NumRegs)
			var buf []ir.Reg
			for i, in := range fn.Instrs {
				tmp.Clear()
				for _, s := range g.InstrSuccs[i] {
					tmp.UnionWith(lv.LiveIn[s])
				}
				if !tmp.Equal(lv.LiveOut[i]) {
					return false
				}
				tmp.Copy(lv.LiveOut[i])
				if d := in.Def(); d != ir.None {
					tmp.Remove(int(d))
				}
				buf = in.Uses(buf[:0])
				for _, u := range buf {
					tmp.Add(int(u))
				}
				if !tmp.Equal(lv.LiveIn[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNothingLiveAtEntry: functions take arguments through getparam, so
// no register is live before the first instruction.
func TestNothingLiveAtEntry(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			if len(fn.Instrs) == 0 {
				continue
			}
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			lv := dataflow.ComputeLiveness(g)
			if !lv.LiveIn[0].Empty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDefUseConsistency: every reached use really uses the register, lies
// at a recorded use site, and every use with a reaching def is reached by
// at least one def (or is reached by no def only when some path from
// entry avoids all defs).
func TestDefUseConsistency(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			du := dataflow.ComputeDefUse(g)
			for r, defs := range du.Defs {
				useSet := map[int]bool{}
				for _, u := range du.Uses[r] {
					useSet[u] = true
				}
				for _, d := range defs {
					for _, u := range du.ReachedUses(d, ir.Reg(r)) {
						if !useSet[u] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDominanceProperties: the entry block dominates every reachable
// block; immediate dominators are acyclic and rooted at the entry; every
// reachable block's postdominator chain reaches the virtual exit.
func TestDominanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				return false
			}
			idom := g.Dominators()
			sets := g.DominatorSets()
			for b := range g.Blocks {
				reachable := b == 0 || len(g.Blocks[b].Preds) > 0
				if !reachable {
					continue
				}
				if sets[b] == nil || !sets[b][0] {
					return false // entry must dominate
				}
				// idom chain terminates at entry.
				steps := 0
				for d := b; d != 0; d = idom[d] {
					if idom[d] < 0 || steps > len(g.Blocks) {
						return false
					}
					steps++
				}
			}
			ipdom := g.PostDominators()
			exit := len(g.Blocks)
			for b := range g.Blocks {
				if b != 0 && len(g.Blocks[b].Preds) == 0 {
					continue
				}
				steps := 0
				d := b
				for d != exit {
					d = ipdom[d]
					if d < 0 || steps > len(g.Blocks)+1 {
						return false
					}
					steps++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestForgetReflowRoundTrip: clearing one register with Forget removes
// it from every set, and Reflow from its uses restores exactly the sets
// ComputeLiveness found, for every register of random functions.
func TestForgetReflowRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				t.Fatal(err)
			}
			want := dataflow.ComputeLiveness(g)
			lv := dataflow.ComputeLivenessCap(g, 2*int(fn.NextReg))
			du := dataflow.ComputeDefUse(g)
			var stack []int
			for r := 1; r < int(fn.NextReg); r++ {
				stack = lv.Forget(g, ir.Reg(r), du.Uses[r], stack)
				for i := range fn.Instrs {
					if lv.LiveIn[i].Has(r) || lv.LiveOut[i].Has(r) {
						t.Fatalf("seed %d %s: r%d still live at %d after Forget", seed, fn.Name, r, i)
					}
				}
				stack = lv.Reflow(g, ir.Reg(r), du.Uses[r], stack)
			}
			for i := range fn.Instrs {
				if !slices.Equal(lv.LiveIn[i].Elems(), want.LiveIn[i].Elems()) ||
					!slices.Equal(lv.LiveOut[i].Elems(), want.LiveOut[i].Elems()) {
					t.Fatalf("seed %d %s: instr %d: reflowed sets differ", seed, fn.Name, i)
				}
			}
		}
	}
}

// TestMultiSourceReachability: ReachedUsesFrom is the union of
// ReachedUses over its definitions, and DefsReaching lists exactly the
// definitions whose ReachedUses meet the given uses.
func TestMultiSourceReachability(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, fn := range randomFunctions(t, seed) {
			g, err := cfg.Build(fn)
			if err != nil {
				t.Fatal(err)
			}
			du := dataflow.ComputeDefUse(g)
			for ri, defs := range du.Defs {
				r := ir.Reg(ri)
				// Every other definition, and every other use, as sources
				// and targets.
				var src, targets []int
				for j, d := range defs {
					if j%2 == 0 {
						src = append(src, d)
					}
				}
				for j, u := range du.Uses[ri] {
					if j%2 == 1 {
						targets = append(targets, u)
					}
				}
				union := map[int]bool{}
				for _, d := range src {
					for _, u := range du.ReachedUses(d, r) {
						union[u] = true
					}
				}
				got := du.ReachedUsesFrom(src, r)
				if len(got) != len(union) || !slices.IsSorted(got) {
					t.Fatalf("seed %d %s r%d: ReachedUsesFrom = %v, want the %d uses of %v", seed, fn.Name, ri, got, len(union), union)
				}
				for _, u := range got {
					if !union[u] {
						t.Fatalf("seed %d %s r%d: ReachedUsesFrom has %d, not reached", seed, fn.Name, ri, u)
					}
				}
				var want []int
				for _, d := range defs {
					for _, u := range du.ReachedUses(d, r) {
						if slices.Contains(targets, u) {
							want = append(want, d)
							break
						}
					}
				}
				if got := du.DefsReaching(targets, r); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s r%d: DefsReaching(%v) = %v, want %v", seed, fn.Name, ri, targets, got, want)
				}
			}
		}
	}
}

package rap

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// SetCheckPatch switches the patched-analysis oracle on or off and
// returns the previous setting. On, every spill round's patched analysis
// is compared with a full reanalyze and any difference fails the
// allocation.
func SetCheckPatch(on bool) bool {
	old := checkPatch != nil
	checkPatch = nil
	if on {
		checkPatch = (*allocator).checkAgainstFull
	}
	return old
}

// checkAgainstFull compares the patched analysis with a full reanalyze
// of the same code.
func (a *allocator) checkAgainstFull() error {
	ref := &allocator{f: a.f, opts: Options{}, scratch: &regScratch{}}
	if err := ref.reanalyze(); err != nil {
		return err
	}
	fail := func(what string, args ...any) error {
		return fmt.Errorf("rap: %s: patched analysis differs from full: "+what, append([]any{a.f.Name}, args...)...)
	}
	if len(a.lv.LiveIn) != len(ref.lv.LiveIn) {
		return fail("%d liveness sets, want %d", len(a.lv.LiveIn), len(ref.lv.LiveIn))
	}
	for i := range ref.lv.LiveIn {
		for _, p := range [][2]*bitset.Set{{a.lv.LiveIn[i], ref.lv.LiveIn[i]}, {a.lv.LiveOut[i], ref.lv.LiveOut[i]}} {
			if got, want := p[0].Elems(), p[1].Elems(); !slices.Equal(got, want) {
				return fail("instr %d (%s): live %v, want %v", i, a.f.Instrs[i], got, want)
			}
		}
	}
	for r := range ref.du.Defs {
		if !slices.Equal(a.du.Defs[r], ref.du.Defs[r]) || !slices.Equal(a.du.Uses[r], ref.du.Uses[r]) {
			return fail("r%d def/use sites differ", r)
		}
	}
	if len(a.du.Defs) != len(ref.du.Defs) || len(a.du.Uses) != len(ref.du.Uses) {
		return fail("def/use tables cover %d/%d registers, want %d/%d",
			len(a.du.Defs), len(a.du.Uses), len(ref.du.Defs), len(ref.du.Uses))
	}
	if !slices.Equal(a.spans, ref.spans) {
		return fail("spans %v, want %v", a.spans, ref.spans)
	}
	if !slices.Equal(a.totalRefs, ref.totalRefs) {
		return fail("reference counts differ")
	}
	if !slices.EqualFunc(a.g.InstrSuccs, ref.g.InstrSuccs, slices.Equal[[]int]) {
		return fail("instruction successors differ")
	}
	return nil
}

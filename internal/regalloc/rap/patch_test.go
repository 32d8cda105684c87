package rap_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/regalloc/rap"
	"repro/internal/testutil"
)

// TestPatchedAnalysisMatchesFull turns on the allocator's oracle, which
// after every spill round compares the patched analysis — liveness sets
// by content, def/use site lists, spans, reference counts and
// instruction successors — with a full reanalysis of the same code and
// fails the allocation on any difference.
func TestPatchedAnalysisMatchesFull(t *testing.T) {
	defer rap.SetCheckPatch(rap.SetCheckPatch(true))
	rounds := 0
	alloc := func(name, src string, opts rap.Options, ks ...int) {
		t.Helper()
		p, err := testutil.Compile(src, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range ks {
			for _, f := range p.Funcs {
				st, err := rap.AllocateWithStats(f.Clone(), k, opts)
				if err != nil {
					t.Fatalf("%s %s k=%d %+v: %v", name, f.Name, k, opts, err)
				}
				rounds += st.SpillRounds
			}
		}
	}
	for _, prog := range bench.Programs() {
		alloc(prog.Name, prog.Source, rap.Options{}, 3, 5, 7, 9)
		// Rematerialization rounds take the full rebuild; the rounds
		// around them still patch.
		alloc(prog.Name, prog.Source, rap.Options{Rematerialize: true, Coalesce: true}, 3)
	}
	cfg := randprog.Config{MaxFuncs: 2, MaxStmtsPerBlock: 5, MaxDepth: 3, Floats: true}
	seeds, want := int64(30), 1000
	if testing.Short() {
		// The -short -race run keeps the Table 1 programs and a few seeds.
		seeds, want = 5, 500
	} else {
		for _, prog := range bench.WidePrograms() {
			if prog.Name == "wide16" {
				alloc(prog.Name, prog.Source, rap.Options{}, 3)
			}
		}
		alloc("deep150", testutil.NestedIfs(150), rap.Options{}, 3)
	}
	for seed := int64(0); seed < seeds; seed++ {
		alloc(fmt.Sprintf("randprog %d", seed), randprog.Generate(seed, cfg), rap.Options{}, 3, 5)
	}
	if rounds < want {
		t.Errorf("only %d spill rounds checked, want >= %d", rounds, want)
	}
	t.Logf("%d spill rounds checked", rounds)
}

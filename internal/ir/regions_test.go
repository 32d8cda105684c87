package ir_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/randprog"
	"repro/internal/testutil"
)

// refRegionSpans is the original RegionSpans, which walks every
// instruction's ancestor chain (O(instrs × depth)); it is the reference
// the linear version must match.
func refRegionSpans(f *ir.Function) []ir.Span {
	n := f.NumRegions
	if n == 0 {
		return nil
	}
	spans := make([]ir.Span, n)
	for i := range spans {
		spans[i] = ir.Span{Start: -1, End: -1}
	}
	parent := f.RegionParents()
	for i, in := range f.Instrs {
		id := in.Region
		for id >= 0 && id < n {
			s := &spans[id]
			if s.Start < 0 {
				s.Start, s.End = i, i+1
			} else {
				if i < s.Start {
					s.Start = i
				}
				if i+1 > s.End {
					s.End = i + 1
				}
			}
			id = parent[id]
		}
	}
	if f.Regions != nil {
		f.Regions.Walk(func(r *ir.Region) {
			if r.ID >= n {
				return
			}
			if s := spans[r.ID]; s.Start < 0 {
				pos := 0
				if r.Parent != nil && r.Parent.ID < n {
					if ps := spans[r.Parent.ID]; ps.Start >= 0 {
						pos = ps.End
					}
				}
				spans[r.ID] = ir.Span{Start: pos, End: pos}
			}
		})
	}
	return spans
}

// refCheckRegions is the original CheckRegions, which scans every
// region's whole span against its subtree (O(instrs × depth)).
func refCheckRegions(f *ir.Function) error {
	if f.Regions == nil {
		return fmt.Errorf("%s: no region tree", f.Name)
	}
	ids := map[int]bool{}
	f.Regions.Walk(func(r *ir.Region) { ids[r.ID] = true })
	for i, in := range f.Instrs {
		if in.Region < 0 || in.Region >= f.NumRegions || !ids[in.Region] {
			return fmt.Errorf("%s: instr %d (%s) owned by unknown region %d", f.Name, i, in, in.Region)
		}
	}
	spans := refRegionSpans(f)
	var err error
	f.Regions.Walk(func(r *ir.Region) {
		if err != nil {
			return
		}
		s := spans[r.ID]
		sub := map[int]bool{}
		r.Walk(func(c *ir.Region) { sub[c.ID] = true })
		for i := s.Start; i < s.End; i++ {
			if !sub[f.Instrs[i].Region] {
				err = fmt.Errorf("%s: region %d span [%d,%d) broken at instr %d (region %d)",
					f.Name, r.ID, s.Start, s.End, i, f.Instrs[i].Region)
				return
			}
		}
		if r.Parent != nil {
			ps := spans[r.Parent.ID]
			if !s.Empty() && (s.Start < ps.Start || s.End > ps.End) {
				err = fmt.Errorf("%s: region %d span [%d,%d) escapes parent %d span [%d,%d)",
					f.Name, r.ID, s.Start, s.End, r.Parent.ID, ps.Start, ps.End)
			}
		}
	})
	return err
}

// sameRegions asserts RegionSpans and CheckRegions agree with the
// references on f.
func sameRegions(t *testing.T, name string, f *ir.Function) {
	t.Helper()
	if got, want := f.RegionSpans(), refRegionSpans(f); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: RegionSpans = %v, want %v", name, got, want)
	}
	got, want := f.CheckRegions(), refCheckRegions(f)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: CheckRegions = %v, want %v", name, got, want)
	}
}

func TestRegionsMatchReference(t *testing.T) {
	var progs []*ir.Program
	for _, b := range bench.Programs() {
		for _, merge := range []bool{false, true} {
			p, err := testutil.Compile(b.Source, lower.Options{MergeStatements: merge})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			progs = append(progs, p)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		p, err := testutil.Compile(randprog.Generate(seed, randprog.DefaultConfig()), lower.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, p)
	}
	broken := 0
	for _, p := range progs {
		for _, f := range p.Funcs {
			sameRegions(t, f.Name, f)
			// Break the tree: move one instruction per stride into a
			// region elsewhere, which splits both regions' spans.
			g := f.Clone()
			for i := 1; i < len(g.Instrs); i += 7 {
				g.Instrs[i].Region = g.Instrs[len(g.Instrs)-1-i].Region
			}
			sameRegions(t, f.Name+" (broken)", g)
			if g.CheckRegions() != nil {
				broken++
			}
		}
	}
	if broken == 0 {
		t.Error("no broken tree was rejected")
	}
}

// TestRegionsBrokenTrees compares the two implementations on hand-made
// malformed trees: every error message and every span must be the same.
func TestRegionsBrokenTrees(t *testing.T) {
	// mk builds a function with one instruction per entry of owners (the
	// owning region IDs) over the tree entry(0){1{2, 3}, 4{}}, plus extra
	// IDs up to numRegions that no region node carries.
	mk := func(numRegions int, owners ...int) *ir.Function {
		f := &ir.Function{Name: "f", NumRegions: numRegions}
		entry := &ir.Region{ID: 0, Kind: ir.RegionEntry}
		r1 := &ir.Region{ID: 1, Kind: ir.RegionStmt, Parent: entry}
		r4 := &ir.Region{ID: 4, Kind: ir.RegionStmt, Parent: entry}
		entry.Children = []*ir.Region{r1, r4}
		r1.Children = []*ir.Region{
			{ID: 2, Kind: ir.RegionThen, Parent: r1},
			{ID: 3, Kind: ir.RegionElse, Parent: r1},
		}
		f.Regions = entry
		for i, o := range owners {
			f.Instrs = append(f.Instrs, &ir.Instr{Op: ir.OpLoadI, Imm: int64(i), Dst: 1, Region: o})
		}
		return f
	}
	cases := []struct {
		name    string
		f       *ir.Function
		wantErr bool
	}{
		{"well formed", mk(5, 0, 1, 2, 2, 3, 1, 4, 0), false},
		{"empty regions", mk(5, 0, 0), false},
		{"empty child of empty parent", mk(5, 0, 4, 0), false},
		{"no instructions", mk(5), false},
		{"sibling interleaved", mk(5, 0, 2, 3, 2, 0), true},
		{"child split by parent's own code", mk(5, 1, 2, 1, 2, 1), true},
		{"region split by an uncle", mk(5, 1, 4, 1), true},
		{"deepest first offender", mk(5, 2, 0, 3, 0, 2), true},
		{"unknown region", mk(6, 0, 5, 0), true},
		{"region out of range", mk(5, 0, 7), true},
		{"negative region", mk(5, 0, -1), true},
		{"no tree", &ir.Function{Name: "g"}, true},
	}
	for _, c := range cases {
		err := c.f.CheckRegions()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: CheckRegions = %v, want error %v", c.name, err, c.wantErr)
		}
		sameRegions(t, c.name, c.f)
	}
}

// Package repro's top-level benchmarks regenerate every experiment in the
// paper's evaluation (§4):
//
//   - BenchmarkTable1_K* runs the full Table 1 comparison at each of the
//     paper's register set sizes, reporting the suite-average percentage
//     decrease in executed cycles (the paper's numbers: k=3: 1.7, k=5:
//     2.7, k=7: 2.6, k=9: 3.7, overall 2.7) and the win fraction (the
//     paper: 25/37 at k=3, 30/37 at k=9).
//   - BenchmarkFigure7RegionGranularity is the region-size ablation the
//     paper motivates with Figure 7.
//   - BenchmarkAblation* quantify RAP's phase 2 (loop spill motion, §3.2)
//     and phase 3 (load/store elimination, §3.3) on the whole suite.
//   - BenchmarkAlloc*/BenchmarkFrontEnd*/BenchmarkPDGBuild/BenchmarkInterp
//     measure the infrastructure itself (compile-time costs, which §1
//     contrasts with Proebsting/Fischer's expensive approach).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lower"
	"repro/internal/pdg"
	"repro/internal/regalloc/chaitin"
	"repro/internal/regalloc/rap"
	"repro/internal/testutil"
)

// benchTable1 runs the Table 1 suite at one register set size and reports
// the paper's metrics. The per-program comparison units fan out over the
// bounded worker pool (results are deterministic regardless).
func benchTable1(b *testing.B, k int, cfg core.CompareConfig) {
	cfg.Parallel = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1([]int{k}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sums := bench.Summarize(rows, []int{k})
		b.ReportMetric(sums[0].AvgTotal, "avg_pct_decrease")
		b.ReportMetric(float64(sums[0].Wins), "wins")
		b.ReportMetric(float64(sums[0].Rows), "routines")
	}
}

func BenchmarkTable1_K3(b *testing.B) { benchTable1(b, 3, core.CompareConfig{}) }
func BenchmarkTable1_K5(b *testing.B) { benchTable1(b, 5, core.CompareConfig{}) }
func BenchmarkTable1_K7(b *testing.B) { benchTable1(b, 7, core.CompareConfig{}) }
func BenchmarkTable1_K9(b *testing.B) { benchTable1(b, 9, core.CompareConfig{}) }

// BenchmarkFigure7RegionGranularity: Table 1 with merged (basic-block
// sized) regions instead of pdgcc's per-statement regions — the change
// the paper's conclusions propose to reduce spill code, at the price of
// the copy-elimination wins.
func BenchmarkFigure7RegionGranularity(b *testing.B) {
	benchTable1(b, 5, core.CompareConfig{Lower: lower.Options{MergeStatements: true}})
}

// Phase ablations over the whole suite at the paper's middle register
// set size.
func BenchmarkAblationNoSpillMotion(b *testing.B) {
	benchTable1(b, 5, core.CompareConfig{RAP: rap.Options{DisableSpillMotion: true}})
}

func BenchmarkAblationNoPeephole(b *testing.B) {
	benchTable1(b, 5, core.CompareConfig{RAP: rap.Options{DisablePeephole: true}})
}

func BenchmarkAblationPhase1Only(b *testing.B) {
	benchTable1(b, 5, core.CompareConfig{RAP: rap.Options{DisableSpillMotion: true, DisablePeephole: true}})
}

// BenchmarkAblationGRAPeephole gives the baseline RAP's Fig. 6 cleanup
// too, isolating how much of RAP's advantage is the peephole rather than
// the hierarchical allocation itself.
func BenchmarkAblationGRAPeephole(b *testing.B) {
	benchTable1(b, 5, core.CompareConfig{GRAPeephole: true})
}

// --- infrastructure throughput ---

func benchAllocate(b *testing.B, allocate func(fn string) error) {
	prog := bench.ProgramByName("clinpack")
	if prog == nil {
		b.Fatal("clinpack missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := allocate(prog.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocGRA(b *testing.B) {
	benchAllocate(b, func(src string) error {
		_, err := core.Compile(src, core.Config{Allocator: core.AllocGRA, K: 5})
		return err
	})
}

func BenchmarkAllocRAP(b *testing.B) {
	benchAllocate(b, func(src string) error {
		_, err := core.Compile(src, core.Config{Allocator: core.AllocRAP, K: 5})
		return err
	})
}

// BenchmarkAllocRAPSpill times RAP where spill rounds dominate: wide16's
// sixteen sibling loop nests at k=3, each needing its own rounds.
func BenchmarkAllocRAPSpill(b *testing.B) {
	var src string
	for _, p := range bench.WidePrograms() {
		if p.Name == "wide16" {
			src = p.Source
		}
	}
	p, err := testutil.Compile(src, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := p.Func("wide")
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := rap.AllocateWithStats(tmpl.Clone(), 3, rap.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += st.SpillRounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "spill_rounds/op")
}

// BenchmarkFrontEndDeep compiles a chain of 1000 nested if statements
// without allocation: region-tree depth is what it stresses.
func BenchmarkFrontEndDeep(b *testing.B) {
	src := testutil.NestedIfs(1000)
	for i := 0; i < b.N; i++ {
		if _, err := testutil.Compile(src, lower.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrontEnd(b *testing.B) {
	prog := bench.ProgramByName("livermore")
	for i := 0; i < b.N; i++ {
		if _, err := testutil.Compile(prog.Source, lower.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDGBuild(b *testing.B) {
	p, err := testutil.Compile(bench.ProgramByName("clinpack").Source, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range p.Funcs {
			if _, err := pdg.Build(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInterp(b *testing.B) {
	benchInterp(b, "sieve", core.Config{Allocator: core.AllocRAP, K: 5})
}

// BenchmarkInterpRecursive times the call path: hanoi's recursion under
// irc, whose code runs on the shared physical register file.
func BenchmarkInterpRecursive(b *testing.B) {
	benchInterp(b, "hanoi", core.Config{Allocator: core.AllocIRC, K: 5})
}

func benchInterp(b *testing.B, name string, cfg core.Config) {
	p, err := core.Compile(bench.ProgramByName(name).Source, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := interp.Run(p, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Total.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles)/float64(b.N), "ns/cycle")
}

// BenchmarkChaitinSingleFunction isolates the baseline allocator on the
// heaviest single function.
func BenchmarkChaitinSingleFunction(b *testing.B) {
	p, err := testutil.Compile(bench.ProgramByName("clinpack").Source, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := p.Func("dgefa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tmpl.Clone()
		if err := chaitin.Allocate(f, 5, chaitin.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAPSingleFunction isolates RAP on the heaviest single
// function.
func BenchmarkRAPSingleFunction(b *testing.B) {
	p, err := testutil.Compile(bench.ProgramByName("clinpack").Source, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := p.Func("dgefa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tmpl.Clone()
		if err := rap.Allocate(f, 5, rap.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

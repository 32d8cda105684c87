package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pdg"
	"repro/internal/regalloc"
	"repro/internal/regalloc/chaitin"
	"repro/internal/regalloc/irc"
	"repro/internal/regalloc/rap"
	"repro/internal/sem"
	"repro/internal/serve"
	"repro/internal/verify"
)

// layers are the modules the traced run times, in pipeline order.
// interp.ref is the reference run of the unallocated program, made once
// per source during set-up.
var layers = []string{"parse", "sem", "lower", "pdg", "alloc.gra", "alloc.rap", "alloc.irc", "verify", "interp", "interp.ref"}

// span is one timed call into a layer. Spans of one job share its ID;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run
// ends. It is used from one goroutine.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its index.
func (rec *recorder) start(id, name string, parent int) int {
	rec.spans = append(rec.spans, span{ID: id, Name: name, Parent: parent, Start: int64(time.Since(rec.origin))})
	return len(rec.spans) - 1
}

func (rec *recorder) end(i int) { rec.spans[i].End = int64(time.Since(rec.origin)) }

// timed runs fn as a span; with a nil recorder it just runs fn.
func (rec *recorder) timed(id, name string, parent int, fn func() error) error {
	if rec == nil {
		return fn()
	}
	i := rec.start(id, name, parent)
	err := fn()
	rec.end(i)
	return err
}

// write stores the spans as JSON lines.
func (rec *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts are the per-layer work counters of one pass of the replay.
type counts struct {
	IRInstrs      int64
	PDGRegions    int64
	SpillOps      map[string]int64
	SpillRounds   int64
	VerifyRejects int64
	Cycles        int64
	InterpAlloc   uint64
}

func newCounts() *counts { return &counts{SpillOps: map[string]int64{}} }

// replay re-executes one job by calling each layer's public function
// directly, as serve.ExecuteJob does through core.Compile, with a span
// around every call. pdg.Build is not on ExecuteJob's path (allocators
// read the region tree lower builds); its span measures the PDG module
// on the same functions and is left out of the tracing overhead.
func replay(rec *recorder, w *workload, j jobSpec, c *counts) (res jobResult) {
	src := w.Sources[j.Source].Text
	root := rec.start(j.ID, "job", -1)
	defer rec.end(root)
	fail := func(err error) jobResult {
		return jobResult{Status: serve.Classify(err), Err: err.Error()}
	}
	defer func() {
		if p := recover(); p != nil {
			res = jobResult{Status: serve.StatusError, Err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	frontend := func() (*ir.Program, error) {
		var prog *ast.Program
		if err := rec.timed(j.ID, "parse", root, func() (err error) { prog, err = parser.Parse(src); return }); err != nil {
			return nil, fmt.Errorf("%w: parse: %w", core.ErrBadSource, err)
		}
		if err := rec.timed(j.ID, "sem", root, func() error { return sem.Check(prog) }); err != nil {
			return nil, fmt.Errorf("%w: check: %w", core.ErrBadSource, err)
		}
		var p *ir.Program
		if err := rec.timed(j.ID, "lower", root, func() (err error) { p, err = lower.Lower(prog, lower.Options{}); return }); err != nil {
			return nil, fmt.Errorf("%w: lower: %w", core.ErrBadSource, err)
		}
		return p, nil
	}
	p, err := frontend()
	if err != nil {
		return fail(err)
	}
	for _, f := range p.Funcs {
		c.IRInstrs += int64(countInstrs(f))
		var g *pdg.Graph
		if err := rec.timed(j.ID, "pdg", root, func() (err error) { g, err = pdg.Build(f); return }); err != nil {
			return fail(fmt.Errorf("pdg %s: %w", f.Name, err))
		}
		for _, n := range g.Nodes {
			if n.Kind == pdg.NodeRegion {
				c.PDGRegions++
			}
		}
	}
	for _, f := range p.Funcs {
		err := rec.timed(j.ID, "alloc."+j.Alloc, root, func() error {
			if err := allocate(f, j.Alloc, j.K, c); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
			return regalloc.CheckPhysical(f)
		})
		if err != nil {
			return fail(err)
		}
		for _, in := range f.Instrs {
			if in.Op == ir.OpLdSpill || in.Op == ir.OpStSpill {
				c.SpillOps[j.Alloc]++
			}
		}
	}
	// serve.ExecuteJob verifies against a second, unallocated compile.
	ref, err := frontend()
	if err != nil {
		return fail(fmt.Errorf("reference compile: %w", err))
	}
	if err := rec.timed(j.ID, "verify", root, func() error { return verify.Program(ref, p, j.K, verify.Options{}) }); err != nil {
		c.VerifyRejects++
		return fail(fmt.Errorf("verify: %w", err))
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var run *interp.Result
	err = rec.timed(j.ID, "interp", root, func() (err error) { run, err = interp.Run(p, interp.Options{Context: ctx}); return })
	runtime.ReadMemStats(&ms)
	c.InterpAlloc += ms.TotalAlloc - before
	if err != nil {
		return fail(fmt.Errorf("run: %w", err))
	}
	c.Cycles += run.Total.Cycles
	out := jobResult{Status: serve.StatusOK, Output: run.Output, Ret: run.Ret, Cycles: run.Total.Cycles}
	out.CodeHash, out.Instrs = codeStats(p.String())
	return out
}

// allocate runs the named allocator on one function with the options
// core.Compile uses for a default job.
func allocate(f *ir.Function, alloc string, k int, c *counts) error {
	switch core.Allocator(alloc) {
	case core.AllocGRA:
		return chaitin.Allocate(f, k, chaitin.Options{})
	case core.AllocRAP:
		st, err := rap.AllocateWithStats(f, k, rap.Options{})
		c.SpillRounds += int64(st.SpillRounds)
		return err
	case core.AllocIRC:
		return irc.Allocate(f, k, irc.Options{})
	}
	return fmt.Errorf("%w: %q", core.ErrBadAllocator, alloc)
}

func countInstrs(f *ir.Function) int {
	n := 0
	for _, in := range f.Instrs {
		if in.Op != ir.OpLabel {
			n++
		}
	}
	return n
}

// layerStats summarizes the spans of the traced run per layer and
// returns the time jobs spent on serve.ExecuteJob's path: job spans
// minus their pdg spans. Shares are of that time. interp.ref spans are
// not part of any job, so its share compares set-up work to job work,
// as pdg's compares off-path work to it.
func layerStats(rec *recorder) (map[string]float64, time.Duration) {
	self := make([]int64, len(rec.spans))
	for i, s := range rec.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	var onPath int64
	durs := map[string][]int64{}
	selfSum := map[string]int64{}
	for i, s := range rec.spans {
		switch s.Name {
		case "job":
			onPath += s.End - s.Start
			continue
		case "pdg":
			onPath -= s.End - s.Start
		}
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		selfSum[s.Name] += self[i]
	}
	out := map[string]float64{}
	for _, l := range layers {
		d := durs[l]
		slices.Sort(d)
		out[l+".calls"] = float64(len(d))
		out[l+".self_ms"] = float64(selfSum[l]) / 1e6
		out[l+".p50_us"] = 0
		if len(d) > 0 {
			out[l+".p50_us"] = float64(d[len(d)/2]) / 1e3
		}
		out[l+".share"] = 0
		if onPath > 0 {
			out[l+".share"] = float64(selfSum[l]) / float64(onPath)
		}
	}
	return out, time.Duration(onPath)
}

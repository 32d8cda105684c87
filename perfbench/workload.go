package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/randprog"
)

// allocs is the order a source's three jobs are submitted in.
var allocs = []string{"gra", "rap", "irc"}

// paperKs are the paper's register set sizes.
var paperKs = []int{3, 5, 7, 9}

// source is one MiniC program the workload compiles.
type source struct {
	Name string
	Text string
}

// jobSpec is one job: one source compiled under one allocator at one k,
// with run and verify on. IDs carry the zero-padded slot number, so they
// sort by slot.
type jobSpec struct {
	ID     string
	Source int
	Alloc  string
	K      int
	// Slot groups the consecutive jobs one serve_stream client submits
	// together (one source at one k under gra, rap and irc).
	Slot int
	// Kind is the slot's kind: fresh, edit or resubmit.
	Kind string
	// After is the slot whose replies a client waits for before it
	// submits this one (an edit's or a resubmission's original), or -1.
	After int
}

// workload is the deterministic input of one run: its sources and the
// job list one pass submits.
type workload struct {
	Name    string
	Sources []source
	Jobs    []jobSpec
	// Runner routes jobs through serve.NewRunner with Clients closed-loop
	// clients; otherwise one client calls serve.ExecuteJob.
	Runner  bool
	Clients int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table1", "serve_stream", "compile_stress"}

// buildWorkload generates the named workload from seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "table1":
		return table1Workload(rng), nil
	case "serve_stream":
		return serveStreamWorkload(rng), nil
	case "compile_stress":
		return compileStressWorkload(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// table1Workload is the paper's 9 programs x k in {3,5,7,9} x {gra, rap,
// irc}; the seed fixes the order the 108 jobs are submitted in.
func table1Workload(rng *rand.Rand) *workload {
	w := &workload{Name: "table1"}
	type unit struct{ src, k int }
	var units []unit
	for i, p := range bench.Programs() {
		w.Sources = append(w.Sources, source{Name: p.Name, Text: p.Source})
		for _, k := range paperKs {
			units = append(units, unit{i, k})
		}
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	for slot, u := range units {
		w.addSlot(slot, u.src, u.k, kindFresh, -1)
	}
	return w
}

// serveCorpus is the number of randprog programs behind serve_stream.
// The corpus is randprog seeds 1..serveCorpus, the same for every
// benchmark seed: randprog cost is heavy-tailed (one triple of jobs
// takes from 20 ms to over 10 s), so a corpus drawn per seed would make
// throughput differ between seeds by more than any useful bound.
const serveCorpus = 6

// serveResubmitEvery makes every serveResubmitEvery-th slot an exact
// resubmission of the first slot of its block, as raploadgen's default
// -dup 4 does: a quarter of the stream are result-cache hits.
const serveResubmitEvery = 4

// Slot kinds of serve_stream; the other workloads have only fresh slots.
const (
	kindFresh    = "fresh"
	kindEdit     = "edit"
	kindResubmit = "resubmit"
)

// serveStreamWorkload submits every corpus program at every paper k
// (fresh: result-cache and region-memo misses) and one one-line edit to
// main of each of those (result-cache misses that can reuse the helpers'
// region summaries), with every fourth slot an exact resubmission. The
// edit share, one edit per fresh slot, is an assumption: no caller in the
// repository submits edits, so nothing measured fixes it. The seed fixes
// the submission order and each edit's text and position.
//
// An edit or a resubmission is submitted only after its original's
// replies, as a user edits or resubmits a program they have seen the
// result of. Otherwise whether it hit the cache would depend on timing,
// and two passes of one seed differed in CPU time by up to 20%.
func serveStreamWorkload(rng *rand.Rand) *workload {
	w := &workload{Name: "serve_stream", Runner: true, Clients: 2}
	type slot struct {
		src, k int
		kind   string
		orig   int // an edit's original source
	}
	var fresh []slot
	for i := 0; i < serveCorpus; i++ {
		w.Sources = append(w.Sources, source{Name: fmt.Sprintf("randprog%d", i+1), Text: randprog.Generate(int64(i+1), randprog.DefaultConfig())})
		for _, k := range paperKs {
			fresh = append(fresh, slot{i, k, kindFresh, -1})
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	stream := append([]slot(nil), fresh...)
	for _, f := range fresh {
		// Place the edit at a seeded position after its original.
		lo := slices.Index(stream, f) + 1
		at := lo + rng.Intn(len(stream)-lo+1)
		e := len(w.Sources)
		w.Sources = append(w.Sources, source{
			Name: fmt.Sprintf("%s-edit-k%d", w.Sources[f.src].Name, f.k),
			Text: editMain(w.Sources[f.src].Text, rng.Intn(1000)+1),
		})
		stream = slices.Insert(stream, at, slot{e, f.k, kindEdit, f.src})
	}
	freshSlot := map[[2]int]int{} // (source, k) of a fresh slot -> its slot number
	n := 0
	for i, s := range stream {
		after := -1
		if s.kind == kindEdit {
			after = freshSlot[[2]int{s.orig, s.k}]
		} else {
			freshSlot[[2]int{s.src, s.k}] = n
		}
		w.addSlot(n, s.src, s.k, s.kind, after)
		n++
		if i%(serveResubmitEvery-1) == serveResubmitEvery-2 {
			base := stream[i-(serveResubmitEvery-2)]
			w.addSlot(n, base.src, base.k, kindResubmit, n-(serveResubmitEvery-1))
			n++
		}
	}
	return w
}

// editMain inserts one statement at the top of main's body. gsum is
// only ever added to and printed, so the edit changes the output but
// not the control flow, and every helper function is unchanged.
func editMain(src string, c int) string {
	const head = "int main() {\n"
	i := strings.Index(src, head)
	if i < 0 {
		panic("randprog source without main")
	}
	i += len(head)
	return src[:i] + fmt.Sprintf("\tgsum = gsum + %d;\n", c) + src[i:]
}

// compileStress sizes: each family's sizes are spread evenly over its
// range, so every seed covers the whole range. The heaviest jobs of each
// family set job_p50_ms and job_p90_ms, and their cost grows faster than
// their size, so the seed moves each size by at most 1% only.
const (
	wideSources = 8
	wideMin     = 8
	wideMax     = 20
	deepSources = 8
	deepMin     = 100
	deepMax     = 300
)

// compileStressWorkload is large-shape sources under gra, rap and irc:
// wide, flat region trees at k in {3,5} and deep if nests.
func compileStressWorkload(rng *rand.Rand) *workload {
	w := &workload{Name: "compile_stress"}
	type unit struct{ src, k int }
	var units []unit
	for i := 0; i < wideSources; i++ {
		width := ladder(rng, wideMin, wideMax, i, wideSources)
		k := 3 + 2*(i%2)
		units = append(units, unit{len(w.Sources), k})
		w.Sources = append(w.Sources, source{Name: fmt.Sprintf("wide%d", width), Text: wideSource(rng, width)})
	}
	for i := 0; i < deepSources; i++ {
		depth := ladder(rng, deepMin, deepMax, i, deepSources)
		k := 3 + 2*(i%2)
		units = append(units, unit{len(w.Sources), k})
		w.Sources = append(w.Sources, source{Name: fmt.Sprintf("deep%d", depth), Text: deepSource(rng, depth)})
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	for slot, u := range units {
		w.addSlot(slot, u.src, u.k, kindFresh, -1)
	}
	return w
}

// ladder returns the i-th of n sizes spread evenly over [lo, hi], moved
// by a seeded jitter of at most 1%.
func ladder(rng *rand.Rand, lo, hi, i, n int) int {
	size := lo + (hi-lo)*i/(n-1)
	j := size / 100
	return size - j + rng.Intn(2*j+1)
}

// addSlot appends the gra, rap and irc jobs of one (source, k) slot
// that waits for slot after (-1: none).
func (w *workload) addSlot(slot, src, k int, kind string, after int) {
	for _, a := range allocs {
		w.Jobs = append(w.Jobs, jobSpec{
			ID:     fmt.Sprintf("%s-%04d-%s", w.Name, slot, a),
			Source: src, Alloc: a, K: k, Slot: slot, Kind: kind, After: after,
		})
	}
}

// slots returns the job list grouped by slot, in list order.
func (w *workload) slots() [][]jobSpec {
	var out [][]jobSpec
	for i, j := range w.Jobs {
		if i == 0 || j.Slot != w.Jobs[i-1].Slot {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], j)
	}
	return out
}

// jobKey identifies the work a job does, independent of its ID: two
// jobs with equal keys must produce identical results.
func (w *workload) jobKey(j jobSpec) string {
	return fmt.Sprintf("%d/%s/%d", j.Source, j.Alloc, j.K)
}

// sortedIDs returns job indexes in ID order.
func (w *workload) sortedIDs() []int {
	idx := make([]int, len(w.Jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return w.Jobs[idx[a]].ID < w.Jobs[idx[b]].ID })
	return idx
}

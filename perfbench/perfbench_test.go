package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/randprog"
	"repro/internal/serve"
)

// fingerprint renders the job list (and every source's hash) as bytes:
// equal seeds must give equal bytes.
func (w *workload) fingerprint() []byte {
	var b strings.Builder
	for _, j := range w.Jobs {
		h := sha256.Sum256([]byte(w.Sources[j.Source].Text))
		fmt.Fprintf(&b, "%s %s k=%d %s %x\n", j.ID, j.Alloc, j.K, w.Sources[j.Source].Name, h[:8])
	}
	return []byte(b.String())
}

func TestJobListsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7)
		c, _ := buildWorkload(name, 8)
		if !bytes.Equal(a.fingerprint(), b.fingerprint()) {
			t.Errorf("%s: the same seed gave different job lists", name)
		}
		if bytes.Equal(a.fingerprint(), c.fingerprint()) {
			t.Errorf("%s: different seeds gave the same job list", name)
		}
		if len(a.Jobs)%len(allocs) != 0 {
			t.Errorf("%s: %d jobs is not whole slots", name, len(a.Jobs))
		}
	}
}

// TestServeStreamShares checks the fixed mix of fresh, edited and
// resubmitted slots: one edit per fresh slot, after its original, and
// every fourth slot a resubmission of the first slot of its block; and
// that edits and resubmissions wait for their originals.
func TestServeStreamShares(t *testing.T) {
	w, _ := buildWorkload("serve_stream", 3)
	firstSlot := map[string]int{} // "name k=K" -> slot it was first submitted in
	fresh, edits, resubmits := 0, 0, 0
	slots := w.slots()
	for i, s := range slots {
		name, k := w.Sources[s[0].Source].Name, s[0].K
		key := fmt.Sprintf("%s k=%d", name, k)
		orig, isEdit := strings.CutSuffix(name, fmt.Sprintf("-edit-k%d", k))
		want, wantAfter := kindFresh, -1
		if f, seen := firstSlot[key]; seen {
			want, wantAfter = kindResubmit, f
			resubmits++
			if i%4 != 3 || f != i-3 {
				t.Errorf("%s: resubmission is not the fourth slot of its block", s[0].ID)
			}
		} else if isEdit {
			f, ok := firstSlot[fmt.Sprintf("%s k=%d", orig, k)]
			want, wantAfter = kindEdit, f
			edits++
			if !ok {
				t.Errorf("%s: edit submitted before its original", s[0].ID)
			}
			firstSlot[key] = i
		} else {
			fresh++
			firstSlot[key] = i
		}
		if s[0].Kind != want || s[0].After != wantAfter {
			t.Errorf("%s: kind %q after %d, want %q after %d", s[0].ID, s[0].Kind, s[0].After, want, wantAfter)
		}
	}
	n := serveCorpus * len(paperKs)
	if fresh != n || edits != n || resubmits != len(slots)/4 || len(slots)%4 != 0 {
		t.Errorf("fresh/edits/resubmits = %d/%d/%d of %d slots, want %d/%d/a quarter", fresh, edits, resubmits, len(slots), n, n)
	}
}

func TestGeneratedShapesRunUnderEveryAllocator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srcs := map[string]string{
		"wide-min": wideSource(rng, wideMin),
		"wide-max": wideSource(rng, wideMax),
		"deep-min": deepSource(rng, deepMin),
		"deep-max": deepSource(rng, deepMax),
	}
	for name, src := range srcs {
		ref, err := computeReference(source{Name: name, Text: src}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range allocs {
			for _, k := range []int{3, 5} {
				r := executeDirect(serve.Job{Source: src, Allocator: a, K: k, Verify: true})
				if r.Status != serve.StatusOK {
					t.Errorf("%s %s k=%d: %s: %s", name, a, k, r.Status, r.Err)
					continue
				}
				if r.Ret != ref.Ret || !slices.Equal(r.Output, ref.Output) {
					t.Errorf("%s %s k=%d: output differs from the unallocated reference", name, a, k)
				}
			}
		}
	}
}

// TestTable1CyclesMatchCompareAtK checks that the table1 jobs measure
// the same programs Table 1 does: per (program, k), each allocator's
// whole-program cycles equal the sum of core.CompareAtK's per-routine
// cycles.
func TestTable1CyclesMatchCompareAtK(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Table 1 twice")
	}
	for _, p := range bench.Programs() {
		ref, err := core.CompileRef(p.Source, core.CompareConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range paperKs {
			ms, err := core.CompareAtK(p.Source, k, core.CompareConfig{}, ref)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name, k, err)
			}
			want := map[string]int64{}
			for _, m := range ms {
				want["gra"] += m.GRA.Cycles
				want["rap"] += m.RAP.Cycles
				want["irc"] += m.IRC.Cycles
			}
			for _, a := range allocs {
				r := executeDirect(serve.Job{Source: p.Source, Allocator: a, K: k, Verify: true})
				if r.Status != serve.StatusOK || r.Cycles != want[a] {
					t.Errorf("%s %s k=%d: job %s with %d cycles, CompareAtK %d", p.Name, a, k, r.Status, r.Cycles, want[a])
				}
			}
		}
	}
}

// TestRunnerPassMatchesExecuteJob runs a small stream through a runner
// with two workers and two clients and checks every result against the
// same job run directly, and that resubmissions wait for their originals.
func TestRunnerPassMatchesExecuteJob(t *testing.T) {
	w := &workload{Name: "small", Clients: 2, Runner: true}
	for i, seed := range []int64{3, 8, 11} {
		w.Sources = append(w.Sources, source{Name: fmt.Sprint("randprog", seed), Text: randprog.Generate(seed, randprog.DefaultConfig())})
		w.addSlot(2*i, i, 3, kindFresh, -1)
		w.addSlot(2*i+1, i, 3, kindResubmit, 2*i)
	}
	rn, err := openRunner(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	viaRunner, err := runPassRunner(w, rn)
	// Each resubmission waits for its original, so it is a cache hit.
	if st := readServeStats(rn); st.CacheHitRatio != 0.5 {
		t.Errorf("cache hit ratio %v, want 0.5", st.CacheHitRatio)
	}
	if cerr := rn.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	direct := runPassDirect(w)
	for i, j := range w.Jobs {
		if viaRunner[i].Status != serve.StatusOK || !viaRunner[i].same(&direct[i]) {
			t.Errorf("%s: runner %s (%s), direct %s", j.ID, viaRunner[i].Status, viaRunner[i].Err, direct[i].Status)
		}
	}
}

// TestKnownVerifierRejectionIsAFailedJob: this program's RAP allocation
// at k=9 is rejected by the verifier although its output is right. It
// must count as a failed job, with its error text, and not as an
// incorrect output, on both execution paths.
func TestKnownVerifierRejectionIsAFailedJob(t *testing.T) {
	w := &workload{Name: "known", Sources: []source{{Name: "randprog49000148", Text: randprog.Generate(49000148, randprog.DefaultConfig())}}, Clients: 1}
	w.Jobs = []jobSpec{{ID: "known-0000-rap", Source: 0, Alloc: "rap", K: 9, After: -1}}
	ref, err := computeReference(w.Sources[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := openRunner(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	viaRunner, err := runPassRunner(w, rn)
	if cerr := rn.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	for path, res := range map[string][]jobResult{"ExecuteJob": runPassDirect(w), "Runner": viaRunner} {
		c := newChecker(w, []reference{ref})
		c.check(0, &res[0])
		if res[0].Status != serve.StatusError || !strings.Contains(res[0].Err, "helper2") {
			t.Errorf("%s: status %q error %q, want a verifier rejection in helper2", path, res[0].Status, res[0].Err)
		}
		if !c.correct() || len(c.failures) != 1 {
			t.Errorf("%s: correct=%v failures=%v incorrect=%v", path, c.correct(), c.failures, c.incorrect)
		}
		if d := c.determine(); d.FailedFrac != 1 {
			t.Errorf("%s: failed_frac = %v, want 1", path, d.FailedFrac)
		}
	}
	r := replay(newRecorder(), w, w.Jobs[0], newCounts())
	if r.Status != serve.StatusError {
		t.Errorf("replay: status %q, want %q", r.Status, serve.StatusError)
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/store"
)

// jobTimeout bounds one job; a job over it is a failed (timeout) job.
const jobTimeout = 60 * time.Second

// reference is a source's expected behaviour, from running the
// unallocated program on the interpreter: independent of every
// allocator.
type reference struct {
	Output []string
	Ret    int64
}

// computeReference compiles s without allocation and runs it. With rec
// non-nil the run is recorded as an interp.ref span.
func computeReference(s source, rec *recorder) (reference, error) {
	p, err := core.Compile(s.Text, core.Config{})
	if err != nil {
		return reference{}, fmt.Errorf("reference compile: %w", err)
	}
	var res *interp.Result
	err = rec.timed("ref-"+s.Name, "interp.ref", -1, func() (err error) {
		res, err = interp.Run(p, interp.Options{})
		return err
	})
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	return reference{Output: res.Output, Ret: res.Ret}, nil
}

// jobResult is what the benchmark keeps of one executed job.
type jobResult struct {
	Status   string
	Err      string
	Output   []string
	Ret      int64
	CodeHash [32]byte
	// Instrs counts the allocated code's non-label instructions.
	Instrs int
	Cycles int64
	Dur    time.Duration
}

// same reports whether two executions of one job agree on everything
// the digest covers.
func (r *jobResult) same(o *jobResult) bool {
	return r.Status == o.Status && r.Ret == o.Ret && r.CodeHash == o.CodeHash && slices.Equal(r.Output, o.Output)
}

// codeStats hashes allocated code text and counts its instructions:
// instruction lines are the indented ones (ir.Function.String).
func codeStats(code string) ([32]byte, int) {
	return sha256.Sum256([]byte(code)), strings.Count(code, "\n    ")
}

// serveJob turns a spec into the job the service runs.
func (w *workload) serveJob(j jobSpec) serve.Job {
	return serve.Job{ID: j.ID, Source: w.Sources[j.Source].Text, Allocator: j.Alloc, K: j.K, Verify: true}
}

// executeDirect runs one job through serve.ExecuteJob, the batch path
// rapcc and rapbench use. A panic is reported as a failed job.
func executeDirect(job serve.Job) (res jobResult) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res = jobResult{Status: serve.StatusError, Err: fmt.Sprintf("panic: %v", p), Dur: time.Since(start)}
		}
	}()
	o, err := serve.ExecuteJob(ctx, job, serve.ExecOptions{})
	d := time.Since(start)
	if err != nil {
		return jobResult{Status: serve.Classify(err), Err: err.Error(), Dur: d}
	}
	res = jobResult{Status: serve.StatusOK, Dur: d, Output: o.Run.Output, Ret: o.Run.Ret, Cycles: o.Run.Total.Cycles}
	res.CodeHash, res.Instrs = codeStats(o.Prog.String())
	return res
}

// fromServeResult flattens a runner Result.
func fromServeResult(r serve.Result, d time.Duration) jobResult {
	res := jobResult{Status: r.Status, Err: r.Error, Output: r.Output, Ret: r.Ret, Dur: d}
	if r.Total != nil {
		res.Cycles = r.Total.Cycles
	}
	if r.Status == serve.StatusOK {
		res.CodeHash, res.Instrs = codeStats(r.Code)
	}
	return res
}

// runner is one serve.Runner over a store in a fresh directory.
type runner struct {
	r   *serve.Runner
	st  *store.Store
	dir string
}

// openRunner starts a runner with workers workers over a new store
// under tmpRoot.
func openRunner(tmpRoot string, workers int) (*runner, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store.log"), store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &runner{r: serve.NewRunner(serve.RunnerConfig{Workers: workers, Store: st}), st: st, dir: dir}, nil
}

// close drains the runner, closes the store and removes its directory.
func (rn *runner) close() error {
	err := rn.r.Drain(context.Background())
	if cerr := rn.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(rn.dir); err == nil {
		err = rerr
	}
	return err
}

// serveWorkers is the runner's pool width: two, or fewer on a smaller
// host.
func serveWorkers() int {
	return min(2, runtime.NumCPU())
}

// runPassDirect runs the job list once, in order, through ExecuteJob.
func runPassDirect(w *workload) []jobResult {
	out := make([]jobResult, len(w.Jobs))
	for i, j := range w.Jobs {
		out[i] = executeDirect(w.serveJob(j))
	}
	return out
}

// runPassRunner runs the job list once through rn with w.Clients
// closed-loop clients. Each client takes the next slot, waits until the
// slot it depends on has its replies, and submits its jobs one after
// another, each waiting for its reply.
func runPassRunner(w *workload, rn *runner) ([]jobResult, error) {
	out := make([]jobResult, len(w.Jobs))
	slots := w.slots()
	first := make([]int, len(slots))
	done := make([]chan struct{}, len(slots))
	for s, i := 0, 0; s < len(slots); s++ {
		first[s] = i
		i += len(slots[s])
		done[s] = make(chan struct{})
	}
	// submit runs slot s. Slots depend only on earlier slots, which a
	// client has already taken, so waiting cannot deadlock.
	submit := func(s int) error {
		defer close(done[s])
		switch a := slots[s][0].After; {
		case a >= s:
			return fmt.Errorf("slot %d waits for slot %d, which is not earlier", s, a)
		case a >= 0:
			<-done[a]
		}
		for n, j := range slots[s] {
			start := time.Now()
			res, err := rn.r.Do(context.Background(), w.serveJob(j))
			if err != nil {
				return fmt.Errorf("submit %s: %w", j.ID, err)
			}
			out[first[s]+n] = fromServeResult(res, time.Since(start))
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, w.Clients)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= len(slots) {
					return
				}
				if err := submit(s); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checker compares every job against its source's reference and every
// repeated execution of a job against the first one.
type checker struct {
	w     *workload
	refs  []reference
	first []*jobResult
	// incorrect lists jobs reported ok whose output or return value
	// differs from the reference; nondet lists jobs whose repeated
	// executions disagree.
	incorrect []string
	nondet    []string
	// failures keeps one line per distinct failed job.
	failures map[string]string
}

func newChecker(w *workload, refs []reference) *checker {
	return &checker{w: w, refs: refs, first: make([]*jobResult, len(w.Jobs)), failures: map[string]string{}}
}

// check records job i's result.
func (c *checker) check(i int, r *jobResult) {
	j := c.w.Jobs[i]
	if r.Status != serve.StatusOK {
		c.failures[j.ID] = fmt.Sprintf("%s %s k=%d on %s: %s: %s", j.ID, j.Alloc, j.K, c.w.Sources[j.Source].Name, r.Status, r.Err)
	} else if ref := c.refs[j.Source]; r.Ret != ref.Ret || !slices.Equal(r.Output, ref.Output) {
		c.incorrect = append(c.incorrect, fmt.Sprintf("%s %s k=%d on %s: output differs from the unallocated reference", j.ID, j.Alloc, j.K, c.w.Sources[j.Source].Name))
	}
	if c.first[i] == nil {
		rc := *r
		c.first[i] = &rc
	} else if !c.first[i].same(r) {
		c.nondet = append(c.nondet, j.ID+": result differs between executions")
	}
}

// correct reports whether no check failed.
func (c *checker) correct() bool {
	return len(c.incorrect) == 0 && len(c.nondet) == 0
}

// digest is the SHA-256 over the jobs in ID order of (id, status,
// output, ret, hash of the code text).
func (c *checker) digest() string {
	h := sha256.New()
	var buf [8]byte
	for _, i := range c.w.sortedIDs() {
		r := c.first[i]
		if r == nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00", c.w.Jobs[i].ID, r.Status)
		for _, line := range r.Output {
			fmt.Fprintf(h, "%s\n", line)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Ret))
		h.Write(buf[:])
		h.Write(r.CodeHash[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// determined are the metrics that depend only on the job list: each
// distinct job (source, allocator, k) is counted once.
type determined struct {
	ExecMcycles float64
	CodeInstrs  float64
	// RAPGRARatio is the mean over (source, k) of cycles(RAP)/cycles(GRA);
	// the paper's percentage decrease is 100·(1 − RAPGRARatio).
	RAPGRARatio float64
	FailedFrac  float64
}

// determine computes the deterministic metrics from the first execution
// of every job.
func (c *checker) determine() determined {
	var d determined
	seen := map[string]bool{}
	type pair struct{ src, k int }
	gra, rap := map[pair]int64{}, map[pair]int64{}
	var order []pair
	failed, n := 0, 0
	for i, r := range c.first {
		if r == nil {
			continue
		}
		n++
		if r.Status != serve.StatusOK {
			failed++
		}
		j := c.w.Jobs[i]
		key := c.w.jobKey(j)
		if seen[key] || r.Status != serve.StatusOK {
			continue
		}
		seen[key] = true
		d.ExecMcycles += float64(r.Cycles) / 1e6
		d.CodeInstrs += float64(r.Instrs)
		switch j.Alloc {
		case "gra":
			gra[pair{j.Source, j.K}] = r.Cycles
			order = append(order, pair{j.Source, j.K})
		case "rap":
			rap[pair{j.Source, j.K}] = r.Cycles
		}
	}
	var ratio float64
	pairs := 0
	for _, p := range order {
		g := gra[p]
		r, ok := rap[p]
		if !ok || g == 0 {
			continue
		}
		ratio += float64(r) / float64(g)
		pairs++
	}
	if pairs > 0 {
		d.RAPGRARatio = ratio / float64(pairs)
	}
	if n > 0 {
		d.FailedFrac = float64(failed) / float64(n)
	}
	return d
}

// serveStats are the service-layer figures of one runner-backed pass,
// read from the runner's own metrics registry.
type serveStats struct {
	QueueWaitP50MS float64
	QueueWaitP90MS float64
	CacheHitRatio  float64
	MemoHitRatio   float64
}

func readServeStats(rn *runner) *serveStats {
	s := rn.r.Metrics().Snapshot()
	qw := s.TimeHistsNS["serve.queue.wait"]
	return &serveStats{
		QueueWaitP50MS: float64(qw.P50()) / 1e6,
		QueueWaitP90MS: float64(qw.P90()) / 1e6,
		CacheHitRatio:  ratio(s.Counters["serve.cache.hits"], s.Counters["serve.cache.misses"]),
		MemoHitRatio:   ratio(s.Counters["rap.memo.hits"], s.Counters["rap.memo.misses"]),
	}
}

// ratio is hits/(hits+misses), 0 when there were neither.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Command perfbench is the repository's benchmark. It runs one workload
// from a seed, checks every job's output against the unallocated
// program's, and prints every metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 a separate traced run replays every job by
// calling each layer's public function and reports per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory says why each workload exists.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

// minJobs is the fewest jobs a run measures, so that at least ten
// latency samples lie beyond job_p90_ms.
const minJobs = 100

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase runs (whole passes over the job list)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the report, digest and spans")
	flag.Parse()
	if o.workload == "" || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.emit(os.Stdout, o, sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is one run's outcome.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// PassSeconds, PassCPUSeconds and PassSteal are each timed pass's
	// wall time, process CPU time and share of busy CPU time stolen.
	PassSeconds    []float64          `json:"pass_seconds,omitempty"`
	PassCPUSeconds []float64          `json:"pass_cpu_seconds,omitempty"`
	PassSteal      []float64          `json:"pass_steal,omitempty"`
	Digest         string             `json:"digest"`
	Metrics        map[string]float64 `json:"metrics"`
	// Failures holds the error text of every job the service returned
	// as not ok; Problems holds incorrect outputs and disagreements.
	Failures []string `json:"failures,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

// env is one set-up: the inputs and their reference behaviour.
type env struct {
	w    *workload
	refs []reference
}

// setUp generates the workload, computes every source's reference and
// warms the execution path up. With rec non-nil the reference runs are
// recorded as interp.ref spans.
func setUp(o options, rec *recorder) (*env, error) {
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, refs: make([]reference, len(w.Sources))}
	for i, s := range w.Sources {
		if e.refs[i], err = computeReference(s, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	// Warm up on a fixed small program, the same for every seed, through
	// the path the timed phase uses.
	warm := &workload{Name: "warmup", Sources: []source{{Name: "sieve", Text: bench.ProgramByName("sieve").Source}}, Runner: w.Runner, Clients: w.Clients}
	warm.addSlot(0, 0, 5, kindFresh, -1)
	if _, _, err := (&env{w: warm}).runPass(o); err != nil {
		return nil, err
	}
	return e, nil
}

func (o options) tmpDir() string { return filepath.Join(o.outDir, "tmp") }

// runPass executes the job list once through the workload's path. A
// runner-backed pass opens a fresh runner over a fresh store, so every
// pass sees the same cold service.
func (e *env) runPass(o options) ([]jobResult, *serveStats, error) {
	if !e.w.Runner {
		return runPassDirect(e.w), nil, nil
	}
	rn, err := openRunner(o.tmpDir(), serveWorkers())
	if err != nil {
		return nil, nil, err
	}
	res, err := runPassRunner(e.w, rn)
	st := readServeStats(rn)
	if cerr := rn.close(); err == nil {
		err = cerr
	}
	return res, st, err
}

func run(o options) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.tmpDir())
	if o.trace == 1 {
		return runTraced(o)
	}
	return runTimed(o)
}

// runTimed is the untraced run: set up setupRounds times, then run whole
// passes over the job list until o.seconds have passed and at least
// minJobs jobs have run.
//
// On a shared host the hypervisor takes CPU time away from this machine
// (steal); that alone moved wall-clock throughput of identical runs by
// up to 40%, and the kernel counts stolen time in the process's CPU time
// too (table1's unscaled jobs per CPU second fell 18% from 0% to 19%
// steal). Wall-clock and CPU times are therefore scaled by one minus the
// share of the machine's busy CPU time stolen while they were measured:
// job latencies and jobs_per_s keep queueing, lock and I/O waits, and
// lose the steal; setup_s and jobs_per_cpu_s are process CPU time (user
// + system) without it.
func runTimed(o options) (*report, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		sc, cpu0 := startStealClock(), cpuSeconds()
		var err error
		if e, err = setUp(o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuSeconds()-cpu0)*sc.unstolen())
	}
	c := newChecker(e.w, e.refs)
	var latencies []float64
	var cpuTotal, wallTotal float64
	attempted, failed, ok := 0, 0, 0
	rep := &report{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	deadline := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for attempted < minJobs || time.Since(start) < deadline {
		sc, passStart, cpu0 := startStealClock(), time.Now(), cpuSeconds()
		res, _, err := e.runPass(o)
		if err != nil {
			return nil, err
		}
		wall, cpu := time.Since(passStart).Seconds(), cpuSeconds()-cpu0
		unstolen := sc.unstolen()
		rep.PassSeconds = append(rep.PassSeconds, wall)
		rep.PassCPUSeconds = append(rep.PassCPUSeconds, cpu)
		rep.PassSteal = append(rep.PassSteal, 1-unstolen)
		cpuTotal += cpu * unstolen
		wallTotal += wall * unstolen
		for i := range res {
			c.check(i, &res[i])
			latencies = append(latencies, res[i].Dur.Seconds()*unstolen*1e3)
			attempted++
			if res[i].Status == serve.StatusOK {
				ok++
			} else {
				failed++
			}
		}
	}
	runtime.ReadMemStats(&ms)
	d := c.determine()
	rep.fill(o, c, attempted, failed)
	rep.Metrics = map[string]float64{
		"setup_s":             median(setups),
		"jobs_per_s":          float64(ok) / wallTotal,
		"jobs_per_cpu_s":      float64(ok) / cpuTotal,
		"job_p50_ms":          quantile(latencies, 0.5),
		"job_p90_ms":          quantile(latencies, 0.9),
		"peak_rss_mb":         peakRSSMiB(),
		"alloc_mb_per_job":    float64(ms.TotalAlloc-allocBefore) / (1 << 20) / float64(attempted),
		"exec_mcycles":        d.ExecMcycles,
		"code_instrs":         d.CodeInstrs,
		"rap_gra_cycle_ratio": d.RAPGRARatio,
	}
	return rep, nil
}

// runTraced is the traced run: per-layer spans from a replay of every
// job, each replay checked against an untraced execution of the same
// job, plus the service's own counters for runner-backed workloads.
func runTraced(o options) (*report, error) {
	rec := newRecorder()
	e, err := setUp(o, rec)
	if err != nil {
		return nil, err
	}
	c := newChecker(e.w, e.refs)
	rep := &report{}
	sst := &serveStats{}
	// kindP50 is the median wall latency, in ms, of the runner pass's
	// jobs of each slot kind, so that fresh and edited programs can be
	// compared whatever their share of the stream.
	kindP50 := map[string]float64{}
	if e.w.Runner {
		res, st, err := e.runPass(o)
		if err != nil {
			return nil, err
		}
		byKind := map[string][]float64{}
		for i := range res {
			c.check(i, &res[i])
			byKind[e.w.Jobs[i].Kind] = append(byKind[e.w.Jobs[i].Kind], res[i].Dur.Seconds()*1e3)
		}
		for k, ls := range byKind {
			kindP50[k] = quantile(ls, 0.5)
		}
		sst = st
	}
	first := newCounts()
	var untraced time.Duration
	var cycles int64
	attempted, failed, passes := 0, 0, 0
	deadline := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for passes == 0 || time.Since(start) < deadline {
		cnt := first
		if passes > 0 {
			cnt = newCounts()
		}
		for i, j := range e.w.Jobs {
			u := executeDirect(e.w.serveJob(j))
			untraced += u.Dur
			r := replay(rec, e.w, j, cnt)
			if !r.same(&u) {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: traced replay differs from the untraced job (%s vs %s)", j.ID, r.Status, u.Status))
			}
			c.check(i, &r)
			attempted++
			if r.Status != serve.StatusOK {
				failed++
			}
		}
		cycles += cnt.Cycles
		passes++
	}
	d := c.determine()
	rep.fill(o, c, attempted, failed)
	m, traced := layerStats(rec)
	m["lower.ir_instrs"] = float64(first.IRInstrs)
	m["pdg.regions"] = float64(first.PDGRegions)
	for _, a := range allocs {
		m["alloc."+a+".spill_ops"] = float64(first.SpillOps[a])
	}
	m["alloc.rap.spill_rounds"] = float64(first.SpillRounds)
	m["verify.rejects"] = float64(first.VerifyRejects)
	m["interp.mcycles"] = float64(first.Cycles) / 1e6
	m["interp.ns_per_cycle"] = 0
	if cycles > 0 {
		m["interp.ns_per_cycle"] = m["interp.self_ms"] * 1e6 / float64(cycles)
	}
	m["interp.alloc_mb"] = float64(first.InterpAlloc) / (1 << 20)
	m["serve.queue_wait_p50_ms"] = sst.QueueWaitP50MS
	m["serve.queue_wait_p90_ms"] = sst.QueueWaitP90MS
	m["serve.cache.hit_ratio"] = sst.CacheHitRatio
	m["store.memo.hit_ratio"] = sst.MemoHitRatio
	for _, k := range []string{kindFresh, kindEdit, kindResubmit} {
		m["serve."+k+"_p50_ms"] = kindP50[k]
	}
	m["trace.overhead_pct"] = 100 * (float64(traced) - float64(untraced)) / float64(untraced)
	m["failed_frac"] = d.FailedFrac
	m["rap_gain_pct"] = 100 * (1 - d.RAPGRARatio)
	rep.Metrics = m
	if err := rec.write(o.path("spans.jsonl")); err != nil {
		return nil, err
	}
	return rep, nil
}

// fill records the run's identity, counts and check results.
func (rep *report) fill(o options, c *checker, attempted, failed int) {
	rep.Workload, rep.Seed, rep.Trace = o.workload, o.seed, o.trace
	rep.Correct = c.correct() && len(rep.Problems) == 0
	rep.Attempted, rep.Failed = attempted, failed
	rep.Digest = c.digest()
	for _, f := range c.failures {
		rep.Failures = append(rep.Failures, f)
	}
	sort.Strings(rep.Failures)
	rep.Problems = append(append(rep.Problems, c.incorrect...), c.nondet...)
}

// path names an output file of this run.
func (o options) path(suffix string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", o.workload, o.seed, o.trace, suffix))
}

// emit writes the report and digest files, then the human-readable
// report and the final JSON line to out.
func (rep *report) emit(out io.Writer, o options, sp *spec) error {
	defs := sp.EndToEnd
	if rep.Trace == 1 {
		defs = sp.PerLayer
	}
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "workload %s seed %d trace %d: %d jobs, %d failed\n", rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed)
	fmt.Fprintf(bw, "digest %s\n", rep.Digest)
	for _, f := range rep.Failures {
		fmt.Fprintf(bw, "failed job: %s\n", f)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(bw, "INCORRECT: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		fmt.Fprintf(bw, "%-28s %16s %s\n", d.Name, strconv.FormatFloat(v, 'g', 10, 64), d.Unit)
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	err = errors.Join(
		os.WriteFile(o.path("report.json"), append(body, '\n'), 0o644),
		os.WriteFile(o.path("digest"), []byte(rep.Digest+"\n"), 0o644),
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine's stolen and busy CPU time so far from the
// first line of /proc/stat, in clock ticks. Busy is every state but idle
// and iowait, steal included; guest time is already inside user and
// nice. Both are 0 where /proc/stat cannot be read.
func cpuTicks() (steal, busy int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		switch i {
		case 3, 4, 8, 9: // idle, iowait, guest, guest_nice
			continue
		case 7:
			steal = n
		}
		busy += n
	}
	return steal, busy
}

// stealClock measures the share of the machine's busy CPU time stolen
// since it started.
type stealClock struct{ steal, busy int64 }

func startStealClock() stealClock {
	s, b := cpuTicks()
	return stealClock{s, b}
}

// unstolen is one minus the share of busy CPU time stolen so far.
func (c stealClock) unstolen() float64 {
	s, b := cpuTicks()
	if b <= c.busy {
		return 1
	}
	return 1 - float64(s-c.steal)/float64(b-c.busy)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

package interp_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

func runProgram(t *testing.T, src string, opts interp.Options) (*interp.Result, error) {
	t.Helper()
	p, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return interp.Run(p, opts)
}

func TestArithmeticOps(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 17 => r1
	loadI 5 => r2
	add r1, r2 => r3
	print r3
	sub r1, r2 => r3
	print r3
	mult r1, r2 => r3
	print r3
	div r1, r2 => r3
	print r3
	mod r1, r2 => r3
	print r3
	neg r1 => r3
	print r3
	not r1 => r3
	print r3
	cmpLT r2, r1 => r3
	print r3
	cmpGE r2, r1 => r3
	print r3
	cmpEQ r1, r1 => r3
	print r3
	cmpNE r1, r1 => r3
	print r3
	cmpLE r1, r1 => r3
	print r3
	cmpGT r1, r2 => r3
	print r3
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"22", "12", "85", "3", "2", "-17", "0", "1", "0", "1", "0", "1", "1"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestFloatOps(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadF 2.5 => r1
	loadF 0.5 => r2
	fadd r1, r2 => r3
	fprint r3
	fsub r1, r2 => r3
	fprint r3
	fmult r1, r2 => r3
	fprint r3
	fdiv r1, r2 => r3
	fprint r3
	fneg r1 => r3
	fprint r3
	fcmpLT r2, r1 => r3
	print r3
	fcmpEQ r1, r1 => r3
	print r3
	i2f r3 => r4
	fprint r4
	loadF 7.9 => r5
	f2i r5 => r6
	print r6
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"3", "2", "1.25", "5", "-2.5", "1", "1", "1", "7"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestMemoryAndStats(t *testing.T) {
	res, err := runProgram(t, `
globals 4
init 2 = 99
func main params=0 locals=2 spills=1
	loadI 2 => r1
	ldm r1 => r2
	print r2
	loadI 7 => r3
	storeAI r3 => r1, 1
	loadAI r1, 1 => r4
	print r4
	lea 0 => r5
	stm r3 => r5
	ldm r5 => r6
	print r6
	sts r6 => 0
	lds 0 => r7
	print r7
	i2i r7 => r8
	print r8
	ret
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"99", "7", "7", "7", "7"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	st := res.PerFunc["main"]
	if st.Loads != 4 { // ldm, loadAI, ldm, lds
		t.Errorf("loads = %d, want 4", st.Loads)
	}
	if st.Stores != 3 { // storeAI, stm, sts
		t.Errorf("stores = %d, want 3", st.Stores)
	}
	if st.Copies != 1 {
		t.Errorf("copies = %d, want 1", st.Copies)
	}
}

func TestCallConventions(t *testing.T) {
	// Register-window semantics: callee clobbering r1 must not affect the
	// caller's r1. Arguments pass via the arg stack; the result returns
	// through ret.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 10 => r1
	arg r1
	call double() => r2
	print r2
	print r1
	ret
end
func double params=1 locals=0
	getparam 0 => r1
	add r1, r1 => r1
	ret r1
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"20", "10"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	if res.PerFunc["double"] == nil || res.PerFunc["double"].Cycles != 3 {
		t.Errorf("per-function attribution wrong: %+v", res.PerFunc["double"])
	}
	// The caller executed: loadI, arg, call, print, print, ret = 6.
	if res.PerFunc["main"].Cycles != 6 {
		t.Errorf("main cycles = %d, want 6", res.PerFunc["main"].Cycles)
	}
}

func TestSpillSlotsArePerFrame(t *testing.T) {
	// Recursion: each frame has its own spill area.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 3 => r1
	arg r1
	call fact() => r2
	print r2
	ret
end
func fact params=1 locals=0 spills=1
	getparam 0 => r1
	sts r1 => 0
	loadI 2 => r2
	cmpLT r1, r2 => r3
	cbr r3 -> LBase, LRec
LBase:
	loadI 1 => r4
	ret r4
LRec:
	loadI 1 => r5
	sub r1, r5 => r6
	arg r6
	call fact() => r7
	lds 0 => r8
	mult r7, r8 => r9
	ret r9
end
`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "6" {
		t.Errorf("3! = %v, want 6", res.Output)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"div_by_zero": `
func main params=0 locals=0
	loadI 1 => r1
	loadI 0 => r2
	div r1, r2 => r3
	ret
end`,
		"mod_by_zero": `
func main params=0 locals=0
	loadI 1 => r1
	loadI 0 => r2
	mod r1, r2 => r3
	ret
end`,
		"oob_memory": `
globals 2
func main params=0 locals=0
	loadI 99999999999 => r1
	ldm r1 => r2
	ret
end`,
		"unknown_callee": `
func main params=0 locals=0
	call nobody()
	ret
end`,
		"bad_spill_slot": `
func main params=0 locals=0
	lds 5 => r1
	ret
end`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := runProgram(t, src, interp.Options{}); err == nil {
				t.Error("expected runtime error")
			}
		})
	}
}

func TestFuelLimit(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=0
L:
	jump -> L
end`, interp.Options{MaxCycles: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("expected budget exhaustion, got %v", err)
	}
}

func TestStackOverflow(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=4000000
	ret
end`, interp.Options{StackWords: 1000})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("expected stack overflow, got %v", err)
	}
}

func TestLabelsAreFree(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
L0:
L1:
	loadI 1 => r1
L2:
	ret r1
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles != 2 {
		t.Errorf("cycles = %d, want 2 (labels free)", res.Total.Cycles)
	}
	if res.Ret != 1 {
		t.Errorf("ret = %d, want 1", res.Ret)
	}
}

func TestGlobalInitApplied(t *testing.T) {
	res, err := runProgram(t, `
globals 3
init 0 = 11
init 2 = 33
func main params=0 locals=0
	loadI 0 => r1
	ldm r1 => r2
	print r2
	loadI 1 => r1
	ldm r1 => r2
	print r2
	loadI 2 => r1
	ldm r1 => r2
	print r2
	ret
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"11", "0", "33"}
	if strings.Join(res.Output, ",") != strings.Join(want, ",") {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestTrace(t *testing.T) {
	p, err := ir.ParseProgram(`
func main params=0 locals=0
	loadI 3 => r1
	print r1
	ret
end`)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := interp.Run(p, interp.Options{Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "loadI 3 => r1") || !strings.HasPrefix(lines[0], "main\t") {
		t.Errorf("bad trace line: %q", lines[0])
	}
	// Third column is the program-wide executed-cycle count.
	for i, l := range lines {
		cols := strings.Split(l, "\t")
		if len(cols) != 4 {
			t.Fatalf("trace line %d has %d columns, want 4: %q", i, len(cols), l)
		}
		if cols[2] != strconv.Itoa(i+1) {
			t.Errorf("trace line %d cycle column = %q, want %d", i, cols[2], i+1)
		}
	}
}

func TestArgStackUnderflow(t *testing.T) {
	_, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	arg r1
	call two() => r2
	ret
end
func two params=2 locals=0
	getparam 0 => r1
	getparam 1 => r2
	add r1, r2 => r3
	ret r3
end`, interp.Options{})
	if err == nil || !strings.Contains(err.Error(), "staged") {
		t.Errorf("expected staged-argument error, got %v", err)
	}
}

func TestNestedCallArgStaging(t *testing.T) {
	// f(a, g(b), c): arguments interleave with a nested call; the stack
	// discipline must keep them straight.
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	loadI 2 => r2
	loadI 3 => r3
	arg r1
	arg r2
	call g() => r4
	arg r4
	arg r3
	call f() => r5
	print r5
	ret
end
func g params=1 locals=0
	getparam 0 => r1
	mult r1, r1 => r2
	ret r2
end
func f params=3 locals=0
	getparam 0 => r1
	getparam 1 => r2
	getparam 2 => r3
	loadI 100 => r4
	mult r1, r4 => r1
	loadI 10 => r4
	mult r2, r4 => r2
	add r1, r2 => r1
	add r1, r3 => r1
	ret r1
end`, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// f(1, g(2)=4, 3) = 100*1 + 10*4 + 3 = 143.
	if res.Output[0] != "143" {
		t.Errorf("output = %v, want 143", res.Output)
	}
}

// TestLazyMemoryEdges pins the memory semantics the lazily grown memory
// must keep: the last word under GlobalWords+StackWords is usable, a word
// never stored to reads 0, and the limit itself is out of range.
func TestLazyMemoryEdges(t *testing.T) {
	const src = `
globals 10
func main params=0 locals=0
	loadI %d => r1
	loadI 7 => r2
	stm r2 => r1
	ldm r1 => r3
	print r3
	loadI %d => r4
	ldm r4 => r5
	print r5
	ret
end`
	const stack = 1 << 20
	limit := 10 + stack
	res, err := runProgram(t, fmt.Sprintf(src, limit-1, limit-2), interp.Options{StackWords: stack})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Output, ","); got != "7,0" {
		t.Errorf("output = %s, want 7,0", got)
	}
	_, err = runProgram(t, fmt.Sprintf(src, limit, limit-2), interp.Options{StackWords: stack})
	if err == nil || !strings.Contains(err.Error(), "memory access out of range") {
		t.Errorf("store at the limit: err = %v, want memory access out of range", err)
	}
}

// TestRecursionOverflowDepth: a recursive function with locals overflows
// a small stack at the depth its frames fill it, ten 10-word frames in
// 100 words.
func TestRecursionOverflowDepth(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 0 => r1
	arg r1
	call rec() => r2
	ret
end
func rec params=1 locals=10
	getparam 0 => r1
	print r1
	lea 9 => r2
	stm r1 => r2
	loadI 1 => r3
	add r1, r3 => r4
	arg r4
	call rec() => r5
	ret
end`, interp.Options{StackWords: 100})
	if err == nil || !strings.Contains(err.Error(), "stack overflow in rec") {
		t.Fatalf("err = %v, want stack overflow in rec", err)
	}
	if len(res.Output) != 10 {
		t.Errorf("%d prints before the overflow, want 10", len(res.Output))
	}
}

// TestUnknownLabelOnlyWhenTaken: a branch to a missing label is an error
// only if it executes.
func TestUnknownLabelOnlyWhenTaken(t *testing.T) {
	res, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	cbr r1 -> L, Missing
L:
	ret r1
	jump -> Missing
end`, interp.Options{})
	if err != nil || res.Ret != 1 {
		t.Fatalf("dead branches to a missing label: ret %v, err %v", res, err)
	}
	for _, branch := range []string{"jump -> Missing", "cbr r1 -> Missing, L"} {
		_, err := runProgram(t, `
func main params=0 locals=0
	loadI 1 => r1
	`+branch+`
L:
	ret r1
end`, interp.Options{})
		if err == nil || !strings.Contains(err.Error(), `unknown label "Missing"`) {
			t.Errorf("%s: err = %v, want unknown label", branch, err)
		}
	}
}

// TestBadRegisterFailsFirstCall: register validation rejects a function
// on its first call, before it executes anything, and never a function
// that is not called.
func TestBadRegisterFailsFirstCall(t *testing.T) {
	const src = `
func main params=0 locals=0
	loadI 1 => r1
	print r1
	%s
	ret
end
func bad params=0 locals=0 k=2 spills=0
	loadI 1 => r3
	print r3
	ret
end`
	res, err := runProgram(t, fmt.Sprintf(src, ""), interp.Options{})
	if err != nil || len(res.Output) != 1 {
		t.Fatalf("uncalled bad function: output %v, err %v", res, err)
	}
	res, err = runProgram(t, fmt.Sprintf(src, "call bad()"), interp.Options{})
	if err == nil || err.Error() != "interp: bad: register r3 out of range (2 registers)" {
		t.Fatalf("err = %v, want register r3 out of range", err)
	}
	if len(res.Output) != 1 || res.PerFunc["bad"] != nil {
		t.Errorf("bad executed: output %v, stats %v", res.Output, res.PerFunc["bad"])
	}
}

// TestMemoryLayoutErrors: a program whose memory cannot be laid out is
// rejected with ErrMemoryLayout before anything is allocated.
func TestMemoryLayoutErrors(t *testing.T) {
	const body = `
func main params=0 locals=0
	ret
end`
	for name, tc := range map[string]struct {
		header string
		opts   interp.Options
	}{
		"huge globals":      {"globals 3000000000", interp.Options{}},
		"globals at limit":  {"globals 16777216", interp.Options{StackWords: 1}},
		"negative globals":  {"globals -1", interp.Options{}},
		"negative stack":    {"globals 1", interp.Options{StackWords: -1}},
		"init past globals": {"globals 2\ninit 2 = 5", interp.Options{}},
		"negative init":     {"globals 2\ninit -1 = 5", interp.Options{}},
	} {
		start := time.Now()
		_, err := runProgram(t, tc.header+body, tc.opts)
		if !errors.Is(err, interp.ErrMemoryLayout) {
			t.Errorf("%s: err = %v, want ErrMemoryLayout", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: took %v", name, d)
		}
	}
	if _, err := runProgram(t, "globals 16777215"+body, interp.Options{StackWords: 1}); err != nil {
		t.Errorf("memory of exactly MaxMemoryWords: %v", err)
	}
	// A register file too large to allocate fails the function's call.
	_, err := runProgram(t, "func main params=0 locals=0\n\tloadI 1 => r20000000\n\tret\nend", interp.Options{})
	if !errors.Is(err, interp.ErrMemoryLayout) {
		t.Errorf("huge register file: err = %v, want ErrMemoryLayout", err)
	}
}

// TestRunsAreIndependent: the decoded form belongs to one Run, so
// repeated and concurrent runs of one program agree exactly. hanoi under
// irc recurses on the shared physical register file.
func TestRunsAreIndependent(t *testing.T) {
	p, err := core.Compile(bench.ProgramByName("hanoi").Source, core.Config{Allocator: core.AllocIRC, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := interp.Run(p, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatalf("second run differs:\n%+v\n%+v", want, again)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := interp.Run(p, interp.Options{Context: context.Background()})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("concurrent run differs:\n%+v\n%+v", want, got)
			}
		}()
	}
	wg.Wait()
}

// Package interp executes IR programs and gathers the execution statistics
// the paper's evaluation is defined in terms of: cycles (one per
// instruction), loads, stores, and copies executed, attributed to the
// function that executed them.
//
// The interpreter runs both unallocated code (virtual registers) and
// allocated code (k physical registers). Frames normally follow a
// register-window convention: every activation gets a fresh register
// file, so a call neither clobbers nor is clobbered by the caller's
// registers. The same convention applies to both window allocators under
// comparison, keeping the evaluation fair, and mirrors the paper's
// per-routine measurement setup.
//
// Functions marked ir.Function.ABI instead share ONE physical register
// file across the whole call stack: a call really executes in the same
// registers as its caller, and after every call from an ABI function the
// caller-save half of the file is poisoned with ir.ClobberPoison (the
// return value then lands in ir.RetReg). An allocation that leaves a
// live value in a caller-save register across a call, or a callee that
// fails to save/restore a callee-save register, therefore computes
// observably wrong results instead of being silently forgiven by the
// window convention. Spill slots stay per-activation.
//
// Each Run first decodes every function into a compact instruction
// slice: register operands as window indexes, loadF constants as bits,
// branch targets as pcs and callees as decoded functions. Registers are
// validated there, once per function instead of once per call; a bad
// register still fails the function's first call, and an unknown label
// or callee still fails only when the branch or call executes. The
// decoded form lives only as long as the Run, so one *ir.Program may be
// run from many goroutines at once. Register windows, spill slots and
// incoming arguments come from one slab per Run, and memory grows on
// demand up to GlobalWords+StackWords words.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/obs"
)

// Stats counts executed instructions by category. The JSON field names
// are part of rapbench's -json schema ("rap/bench/v1").
type Stats struct {
	Cycles int64 `json:"cycles"` // every non-label instruction
	Loads  int64 `json:"loads"`  // ldm + lds
	Stores int64 `json:"stores"` // stm + sts
	Copies int64 `json:"copies"` // i2i
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Copies += other.Copies
}

// Options configures execution.
type Options struct {
	// MaxCycles aborts execution after this many cycles (0 means the
	// default of 500 million).
	MaxCycles int64
	// StackWords is how far memory may grow beyond the globals for
	// frames (0 means the default of 1 << 22). It is a cap, not a
	// reservation: memory starts small and grows on demand, and a frame
	// that would reach past GlobalWords+StackWords is a stack overflow.
	// GlobalWords+StackWords may not exceed MaxMemoryWords.
	StackWords int64
	// Trace, when non-nil, receives one line per executed instruction
	// ("<func>\t<index>\t<cycle>\t<instruction>", where <cycle> is the
	// program-wide executed-cycle count at that instruction) — a
	// debugging aid; tracing does not affect the counted statistics.
	Trace io.Writer
	// Tracer, when enabled, times the run under the "interp" span and
	// publishes the per-function summary through the attached metrics
	// registry as counters "interp.func.<name>.<cycles|loads|stores|
	// copies>" plus the "interp.total.*" aggregates.
	Tracer *obs.Tracer
	// Context, when non-nil, is polled periodically (every few thousand
	// cycles) so a cancellation or deadline aborts a long-running or
	// non-terminating program with the context's error.
	Context context.Context
}

// MaxMemoryWords bounds a run's memory: a program's GlobalWords plus
// Options.StackWords may not exceed it (1<<24 words is 128 MiB, over a
// thousand times the globals of the largest benchmark).
const MaxMemoryWords = 1 << 24

// MaxCallDepth bounds how deeply calls may nest. Every activation is a
// Go call costing 0.5–1.7 KiB of Go stack, and a function without locals
// never reaches the memory limit, so without this bound unbounded
// recursion would end in the Go runtime's fatal stack overflow, which no
// recover catches. At 20000 the Go stack stays under 34 MiB, and the
// bound is over 300 times the deepest nesting the test suite and the
// benchmark workloads reach (64 calls).
const MaxCallDepth = 20000

// ErrStackOverflow reports a call that would take the stack past its
// memory limit or nest calls deeper than MaxCallDepth.
var ErrStackOverflow = errors.New("interp: stack overflow")

// ErrMemoryLayout reports a program whose memory cannot be laid out:
// negative globals, globals plus stack beyond MaxMemoryWords, or an
// initial value outside the globals, which Run reports before allocating
// anything; or a function whose registers or spill slots alone exceed
// MaxMemoryWords, which fails its first call.
var ErrMemoryLayout = errors.New("interp: bad memory layout")

// Result is the outcome of a program run.
type Result struct {
	// Output is the sequence of print lines the program produced.
	Output []string
	// PerFunc attributes stats to the function that executed each
	// instruction (exclusive, not inclusive of callees).
	PerFunc map[string]*Stats
	// Total sums PerFunc.
	Total Stats
	// Ret is main's return value.
	Ret int64
}

// FuncNames returns the measured function names in sorted order.
func (r *Result) FuncNames() []string {
	names := make([]string, 0, len(r.PerFunc))
	for n := range r.PerFunc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	defaultMaxCycles  = 500_000_000
	defaultStackWords = 1 << 22
	// initialStackWords is how much memory past the globals a run
	// starts with; most programs never grow it.
	initialStackWords = 4096
	// ctxPollCycles is the distance between context polls, 8192 unpolled
	// cycles apart (polling every cycle would put two atomic loads on the
	// hot path).
	ctxPollCycles = 8193
)

// instr is one decoded instruction.
type instr struct {
	imm int64 // Imm, or a loadF's float bits
	// callee is the called function, nil when no function has its name.
	callee *fn
	// in is the source instruction, for trace lines, error text and the
	// register-passed arguments of hand-written IR calls.
	in *ir.Instr
	// dst, src1 and src2 index the activation's register window.
	dst, src1, src2 int32
	// t1 and t2 are the pcs after the branch's Label and Label2, -1 when
	// the function has no such label.
	t1, t2 int32
	op     ir.Op
}

// fn is one function decoded for a run.
type fn struct {
	f    *ir.Function
	code []instr
	// nregs is the register file size. An abi function uses the shared
	// physical file; any other gets a window of its own.
	nregs  int
	abi    bool
	spills int
	// frame is the slab words an activation takes before its arguments:
	// its register window, if any, then its spill slots.
	frame int
	// bad is the validation failure the first call reports: a register
	// out of range, or a frame too large to allocate.
	bad error
	// stats is the function's PerFunc entry, nil until first called.
	stats *Stats
}

type machine struct {
	mem []int64
	// limit is GlobalWords+StackWords: the stack overflows at it and mem
	// grows up to it.
	limit    int64
	stackTop int64
	res      *Result
	// slab holds every live activation's register window, spill slots
	// and incoming arguments; sp is its first free word.
	slab []int64
	sp   int
	// argStack holds outgoing call arguments pushed by OpArg; OpCall pops
	// the callee's parameter count (memory-style argument passing, so a
	// call never needs all arguments in registers at once).
	argStack []int64
	// physRegs is the shared physical register file used by ABI
	// functions, sized once at Run for the largest ABI register set in
	// the program (so activations alias a stable slice across recursion).
	physRegs []int64
	ctx      context.Context
	trace    io.Writer
	// executed is the program-wide cycle count, printed as the trace's
	// cycle column.
	executed  int64
	maxCycles int64
	// nextPoll is the cycle count at which ctx is polled next, and
	// nextCheck the smaller of it and the first cycle over budget; both
	// start at 0, so the first cycle checks.
	nextPoll  int64
	nextCheck int64
	// depth is the number of live activations.
	depth int
}

// Run executes p starting at main.
func Run(p *ir.Program, opts Options) (*Result, error) {
	if p.Func("main") == nil {
		return nil, fmt.Errorf("interp: program has no main")
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = defaultMaxCycles
	}
	if opts.StackWords == 0 {
		opts.StackWords = defaultStackWords
	}
	if err := checkLayout(p, opts.StackWords); err != nil {
		return nil, err
	}
	fns, main := decode(p)
	m := &machine{
		limit:     p.GlobalWords + opts.StackWords,
		stackTop:  p.GlobalWords,
		res:       &Result{PerFunc: map[string]*Stats{}},
		ctx:       opts.Context,
		trace:     opts.Trace,
		maxCycles: opts.MaxCycles,
	}
	m.mem = make([]int64, min(m.limit, p.GlobalWords+initialStackWords))
	for a, v := range p.GlobalInit {
		m.mem[a] = v
	}
	maxABI := 0
	for i := range fns {
		if fns[i].abi {
			maxABI = max(maxABI, fns[i].nregs)
		}
	}
	m.physRegs = make([]int64, maxABI)
	span := opts.Tracer.StartSpan("interp")
	ret, err := m.call(main, 0)
	span.End()
	if err != nil {
		return m.res, err
	}
	m.res.Ret = ret
	for _, st := range m.res.PerFunc {
		m.res.Total.Add(*st)
	}
	m.res.publish(opts.Tracer.Metrics())
	return m.res, nil
}

// checkLayout rejects a memory image Run must not allocate.
func checkLayout(p *ir.Program, stackWords int64) error {
	if p.GlobalWords < 0 || stackWords < 0 {
		return fmt.Errorf("%w: %d global words, %d stack words", ErrMemoryLayout, p.GlobalWords, stackWords)
	}
	if p.GlobalWords > MaxMemoryWords-stackWords {
		return fmt.Errorf("%w: %d global words + %d stack words exceed the %d-word limit",
			ErrMemoryLayout, p.GlobalWords, stackWords, MaxMemoryWords)
	}
	for a := range p.GlobalInit {
		if a < 0 || a >= p.GlobalWords {
			return fmt.Errorf("%w: init address %d outside %d global words", ErrMemoryLayout, a, p.GlobalWords)
		}
	}
	return nil
}

// decode translates every function of p and returns them with main.
// A callee resolves to the first function of its name, as Program.Func
// does, and a label to its last definition, as Function.LabelIndex does.
func decode(p *ir.Program) ([]fn, *fn) {
	fns := make([]fn, len(p.Funcs))
	byName := make(map[string]*fn, len(p.Funcs))
	for i, f := range p.Funcs {
		if byName[f.Name] == nil {
			byName[f.Name] = &fns[i]
		}
	}
	for i, f := range p.Funcs {
		d := &fns[i]
		d.f = f
		nregs := int(f.NextReg)
		if f.Allocated {
			nregs = f.K + 1
		}
		d.nregs = max(nregs, 1)
		d.abi = f.ABI && f.Allocated
		d.spills = max(f.SpillSlots, 0)
		d.frame = d.spills
		if !d.abi {
			d.frame += d.nregs
		}
		if d.nregs > MaxMemoryWords || d.spills > MaxMemoryWords {
			// Also keeps every register index within an int32.
			d.bad = fmt.Errorf("%w: %s: %d registers and %d spill slots exceed the %d-word limit",
				ErrMemoryLayout, f.Name, d.nregs, d.spills, MaxMemoryWords)
			d.nregs, d.spills, d.frame = 1, 0, 0
		}
		labels := f.LabelIndex()
		target := func(label string) int32 {
			if t, ok := labels[label]; ok {
				return int32(t + 1)
			}
			return -1
		}
		d.code = make([]instr, len(f.Instrs))
		var buf []ir.Reg
		for pc, in := range f.Instrs {
			buf = in.Uses(buf[:0])
			if r := in.Def(); r != ir.None {
				buf = append(buf, r)
			}
			for _, r := range buf {
				if (r < 0 || int(r) >= nregs) && d.bad == nil {
					d.bad = fmt.Errorf("interp: %s: register %s out of range (%d registers)", f.Name, r, nregs-1)
				}
			}
			c := &d.code[pc]
			*c = instr{op: in.Op, in: in, imm: in.Imm, dst: int32(in.Dst), src1: int32(in.Src1), src2: int32(in.Src2)}
			switch in.Op {
			case ir.OpLoadF:
				c.imm = f2b(in.FImm)
			case ir.OpCBr:
				c.t1, c.t2 = target(in.Label), target(in.Label2)
			case ir.OpJump:
				c.t1 = target(in.Label)
			case ir.OpCall:
				c.callee = byName[in.Callee]
			}
		}
	}
	return fns, byName["main"]
}

// publish records the run's per-function summary in a metrics registry
// — the machine-readable form of rapcc's -stats table.
func (r *Result) publish(reg *obs.Metrics) {
	if reg == nil {
		return
	}
	record := func(prefix string, s *Stats) {
		reg.Add(prefix+".cycles", s.Cycles)
		reg.Add(prefix+".loads", s.Loads)
		reg.Add(prefix+".stores", s.Stores)
		reg.Add(prefix+".copies", s.Copies)
	}
	for name, st := range r.PerFunc {
		record("interp.func."+name, st)
		// One histogram sample per measured function: the distribution
		// of simulated cycle counts across a batch of runs. Cycle counts
		// are deterministic for a deterministic program, so this stays in
		// the snapshot's deterministic sections.
		reg.ObserveVal("interp.func.cycles", st.Cycles)
	}
	record("interp.total", &r.Total)
}

func f2b(f float64) int64 { return int64(math.Float64bits(f)) }
func b2f(b int64) float64 { return math.Float64frombits(uint64(b)) }
func boolTo(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// call runs one activation of d, whose nargs arguments are the top of
// the argument stack.
func (m *machine) call(d *fn, nargs int) (int64, error) {
	if d.bad != nil {
		return 0, d.bad
	}
	localBase := m.stackTop
	if localBase+d.f.LocalWords > m.limit || m.depth >= MaxCallDepth {
		return 0, fmt.Errorf("%w in %s", ErrStackOverflow, d.f.Name)
	}
	if d.stats == nil {
		d.stats = m.res.PerFunc[d.f.Name]
		if d.stats == nil {
			d.stats = &Stats{}
			m.res.PerFunc[d.f.Name] = d.stats
		}
	}

	base, top := m.sp, m.sp+d.frame+nargs
	if top > len(m.slab) {
		// Outer activations keep their slices of the old slab, which stay
		// valid: no two activations share words.
		m.slab = append(m.slab[:base], make([]int64, top-base)...)
		m.slab = m.slab[:cap(m.slab)]
	}
	frame := m.slab[base:top:top]
	clear(frame[:d.frame])
	copy(frame[d.frame:], m.argStack[len(m.argStack)-nargs:])
	m.argStack = m.argStack[:len(m.argStack)-nargs]

	var regs []int64
	if d.abi {
		// ABI code runs on the shared physical file: the callee sees (and
		// may clobber) the caller's registers, exactly like real hardware.
		regs = m.physRegs[:d.nregs]
	} else {
		regs = frame[:d.nregs]
	}
	m.sp, m.stackTop = top, localBase+d.f.LocalWords
	m.depth++
	ret, err := m.exec(d, regs, frame[d.frame-d.spills:d.frame], frame[d.frame:], localBase)
	m.sp, m.stackTop = base, localBase
	m.depth--
	return ret, err
}

// exec is the dispatch loop of one activation.
func (m *machine) exec(d *fn, regs, spill, args []int64, localBase int64) (int64, error) {
	st, code, name := d.stats, d.code, d.f.Name
	pc := 0
	for pc < len(code) {
		c := &code[pc]
		if c.op == ir.OpLabel {
			pc++
			continue
		}
		st.Cycles++
		m.executed++
		if m.trace != nil {
			fmt.Fprintf(m.trace, "%s\t%d\t%d\t%s\n", name, pc, m.executed, c.in)
		}
		if m.executed >= m.nextCheck {
			if err := m.check(name); err != nil {
				return 0, err
			}
		}
		pc++
		switch c.op {
		case ir.OpLoadI, ir.OpLoadF:
			regs[c.dst] = c.imm
		case ir.OpLea:
			regs[c.dst] = localBase + c.imm
		case ir.OpGetParam:
			if c.imm < 0 || c.imm >= int64(len(args)) {
				return 0, fmt.Errorf("interp: %s: missing argument %d", name, c.imm)
			}
			regs[c.dst] = args[c.imm]
		case ir.OpAdd:
			regs[c.dst] = regs[c.src1] + regs[c.src2]
		case ir.OpSub:
			regs[c.dst] = regs[c.src1] - regs[c.src2]
		case ir.OpMult:
			regs[c.dst] = regs[c.src1] * regs[c.src2]
		case ir.OpDiv:
			b := regs[c.src2]
			if b == 0 {
				return 0, fmt.Errorf("interp: %s: division by zero", name)
			}
			regs[c.dst] = regs[c.src1] / b
		case ir.OpMod:
			b := regs[c.src2]
			if b == 0 {
				return 0, fmt.Errorf("interp: %s: modulo by zero", name)
			}
			regs[c.dst] = regs[c.src1] % b
		case ir.OpCmpLT:
			regs[c.dst] = boolTo(regs[c.src1] < regs[c.src2])
		case ir.OpCmpLE:
			regs[c.dst] = boolTo(regs[c.src1] <= regs[c.src2])
		case ir.OpCmpGT:
			regs[c.dst] = boolTo(regs[c.src1] > regs[c.src2])
		case ir.OpCmpGE:
			regs[c.dst] = boolTo(regs[c.src1] >= regs[c.src2])
		case ir.OpCmpEQ:
			regs[c.dst] = boolTo(regs[c.src1] == regs[c.src2])
		case ir.OpCmpNE:
			regs[c.dst] = boolTo(regs[c.src1] != regs[c.src2])
		case ir.OpFAdd:
			regs[c.dst] = f2b(b2f(regs[c.src1]) + b2f(regs[c.src2]))
		case ir.OpFSub:
			regs[c.dst] = f2b(b2f(regs[c.src1]) - b2f(regs[c.src2]))
		case ir.OpFMult:
			regs[c.dst] = f2b(b2f(regs[c.src1]) * b2f(regs[c.src2]))
		case ir.OpFDiv:
			regs[c.dst] = f2b(b2f(regs[c.src1]) / b2f(regs[c.src2]))
		case ir.OpFCmpLT:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) < b2f(regs[c.src2]))
		case ir.OpFCmpLE:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) <= b2f(regs[c.src2]))
		case ir.OpFCmpGT:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) > b2f(regs[c.src2]))
		case ir.OpFCmpGE:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) >= b2f(regs[c.src2]))
		case ir.OpFCmpEQ:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) == b2f(regs[c.src2]))
		case ir.OpFCmpNE:
			regs[c.dst] = boolTo(b2f(regs[c.src1]) != b2f(regs[c.src2]))
		case ir.OpNeg:
			regs[c.dst] = -regs[c.src1]
		case ir.OpFNeg:
			regs[c.dst] = f2b(-b2f(regs[c.src1]))
		case ir.OpNot:
			regs[c.dst] = boolTo(regs[c.src1] == 0)
		case ir.OpI2I:
			regs[c.dst] = regs[c.src1]
			st.Copies++
		case ir.OpI2F:
			regs[c.dst] = f2b(float64(regs[c.src1]))
		case ir.OpF2I:
			regs[c.dst] = int64(b2f(regs[c.src1]))
		case ir.OpLoad, ir.OpLoadAI:
			a := regs[c.src1] + c.imm // OpLoad has imm 0
			if a < 0 || a >= m.limit {
				return 0, fmt.Errorf("interp: %s: memory access out of range: %d", name, a)
			}
			var v int64 // a word beyond mem was never stored to
			if a < int64(len(m.mem)) {
				v = m.mem[a]
			}
			regs[c.dst] = v
			st.Loads++
		case ir.OpStore, ir.OpStoreAI:
			a := regs[c.src2] + c.imm
			if a < 0 || a >= m.limit {
				return 0, fmt.Errorf("interp: %s: memory access out of range: %d", name, a)
			}
			if a >= int64(len(m.mem)) {
				m.grow(a)
			}
			m.mem[a] = regs[c.src1]
			st.Stores++
		case ir.OpLdSpill:
			if c.imm < 0 || c.imm >= int64(len(spill)) {
				return 0, fmt.Errorf("interp: %s: spill slot %d out of range", name, c.imm)
			}
			regs[c.dst] = spill[c.imm]
			st.Loads++
		case ir.OpStSpill:
			if c.imm < 0 || c.imm >= int64(len(spill)) {
				return 0, fmt.Errorf("interp: %s: spill slot %d out of range", name, c.imm)
			}
			spill[c.imm] = regs[c.src1]
			st.Stores++
		case ir.OpCBr:
			t, label := c.t2, c.in.Label2
			if regs[c.src1] != 0 {
				t, label = c.t1, c.in.Label
			}
			if t < 0 {
				return 0, fmt.Errorf("interp: %s: unknown label %q", name, label)
			}
			pc = int(t)
		case ir.OpJump:
			if c.t1 < 0 {
				return 0, fmt.Errorf("interp: %s: unknown label %q", name, c.in.Label)
			}
			pc = int(c.t1)
		case ir.OpArg:
			m.argStack = append(m.argStack, regs[c.src1])
		case ir.OpCall:
			callee := c.callee
			if callee == nil {
				return 0, fmt.Errorf("interp: call to unknown function %q", c.in.Callee)
			}
			n := callee.f.NumParams
			if len(c.in.Args) > 0 {
				// Register-passed arguments (hand-written IR tests).
				for _, a := range c.in.Args {
					m.argStack = append(m.argStack, regs[a])
				}
				n = len(c.in.Args)
			} else if len(m.argStack) < n {
				return 0, fmt.Errorf("interp: call to %s with %d staged arguments, need %d", c.in.Callee, len(m.argStack), n)
			}
			rv, err := m.call(callee, n)
			if err != nil {
				return 0, err
			}
			if d.abi {
				// The call clobbered every caller-save register; make the
				// damage deterministic so bad allocations fail identically
				// regardless of what the callee happened to compute.
				for r := 1; r <= ir.CallerSaveCount(d.f.K); r++ {
					regs[r] = ir.ClobberPoison
				}
			}
			if c.dst != 0 {
				regs[c.dst] = rv
			}
		case ir.OpRet:
			if c.src1 == 0 {
				return 0, nil
			}
			return regs[c.src1], nil
		case ir.OpPrint:
			m.res.Output = append(m.res.Output, strconv.FormatInt(regs[c.src1], 10))
		case ir.OpFPrint:
			m.res.Output = append(m.res.Output, formatFloat(b2f(regs[c.src1])))
		default:
			return 0, fmt.Errorf("interp: %s: cannot execute %s", name, c.in)
		}
	}
	return 0, nil
}

// check runs when the cycle count reaches nextCheck: it enforces the
// cycle budget and polls the context.
func (m *machine) check(name string) error {
	if m.executed > m.maxCycles {
		return fmt.Errorf("interp: cycle budget exhausted in %s", name)
	}
	if m.ctx != nil && m.executed >= m.nextPoll {
		m.nextPoll = m.executed + ctxPollCycles
		if err := m.ctx.Err(); err != nil {
			return fmt.Errorf("interp: run cancelled in %s: %w", name, err)
		}
	}
	m.nextCheck = m.maxCycles + 1
	if m.ctx != nil {
		m.nextCheck = min(m.nextCheck, m.nextPoll)
	}
	return nil
}

// grow doubles mem until it holds address a (a < m.limit).
func (m *machine) grow(a int64) {
	n := max(2*int64(len(m.mem)), a+1)
	mem := make([]int64, min(n, m.limit))
	copy(mem, m.mem)
	m.mem = mem
}

// formatFloat renders floats deterministically, with a fixed number of
// significant digits so that the output is stable across evaluation
// orders.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if math.IsNaN(v) {
		return "nan"
	}
	s := strconv.FormatFloat(v, 'g', 12, 64)
	return strings.TrimSuffix(s, ".0")
}

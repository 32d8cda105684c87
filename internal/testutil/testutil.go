// Package testutil provides helpers shared by the allocator and pipeline
// tests: compiling MiniC snippets and comparing program behaviour across
// allocation strategies.
package testutil

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
)

// Compile parses, checks and lowers MiniC source.
func Compile(src string, opts lower.Options) (*ir.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := sem.Check(prog); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	p, err := lower.Lower(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return p, nil
}

// MustCompile is Compile but panics on error (for tests).
func MustCompile(src string) *ir.Program {
	p, err := Compile(src, lower.Options{})
	if err != nil {
		panic(err)
	}
	return p
}

// Run executes p and returns the result.
func Run(p *ir.Program) (*interp.Result, error) {
	return interp.Run(p, interp.Options{})
}

// SameBehaviour checks that two runs produced identical output and return
// value. It returns a descriptive error on mismatch.
func SameBehaviour(ref, got *interp.Result) error {
	if !reflect.DeepEqual(ref.Output, got.Output) {
		return fmt.Errorf("output mismatch:\nref: %v\ngot: %v", ref.Output, got.Output)
	}
	if ref.Ret != got.Ret {
		return fmt.Errorf("return value mismatch: ref %d, got %d", ref.Ret, got.Ret)
	}
	return nil
}

// AllocateFunc applies alloc to every function of a clone of p and returns
// the allocated program.
func AllocateFunc(p *ir.Program, alloc func(*ir.Function) error) (*ir.Program, error) {
	cp := p.Clone()
	for _, f := range cp.Funcs {
		if err := alloc(f); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return cp, nil
}

// NestedIfs returns a MiniC program whose main is a chain of depth
// nested if statements, each arm one level deeper, with a few values
// live across the whole chain: deep region trees for the front end and
// spill rounds for the allocators.
func NestedIfs(depth int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tint x = 1;\n\tint y = 2;\n\tint z = 3;\n\tint acc = 0;\n")
	for d := 0; d < depth; d++ {
		fmt.Fprintf(&b, "if (x < %d) {\nacc = acc + y * %d - z;\n", d+2, d%7+1)
		if d%2 == 1 {
			b.WriteString("x = x + 1;\ny = y + acc % 5;\n")
		}
	}
	b.WriteString(strings.Repeat("}\n", depth))
	b.WriteString("\tprint(acc + x + y + z);\n\treturn 0;\n}\n")
	return b.String()
}

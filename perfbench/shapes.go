package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The compile_stress sources are generated here rather than taken from
// the repository, so the benchmark does not depend on synthetic program
// sets that live next to the code they measure.

// wideLive is how many values each arm of a wide source keeps live.
const wideLive = 3

// wideSource returns a program whose function `wide` has `branches`
// sibling if/else subtrees directly under its root region. Each then-arm
// holds a two-level loop nest that keeps wideLive values live at once, so
// at small k every arm needs spill code: RAP pays one spill round per
// arm, and each round re-analyses the whole function. Every arm runs, so
// the cycles executed depend on the size alone.
func wideSource(rng *rand.Rand, branches int) string {
	var b strings.Builder
	b.WriteString("int wout[64];\n\nint wide(int x) {\n\tint acc = x;\n")
	for i := 0; i < branches; i++ {
		c := rng.Intn(5)
		fmt.Fprintf(&b, "\tif (x > %d) {\n", c)
		fmt.Fprintf(&b, "\t\tint i%d;\n\t\tint j%d;\n", i, i)
		for v := 0; v < wideLive; v++ {
			fmt.Fprintf(&b, "\t\tint v%d_%d = x + %d;\n", i, v, rng.Intn(9)+1)
		}
		fmt.Fprintf(&b, "\t\tfor (i%d = 0; i%d < 3; i%d = i%d + 1) {\n", i, i, i, i)
		fmt.Fprintf(&b, "\t\t\tfor (j%d = 0; j%d < 3; j%d = j%d + 1) {\n", i, i, i, i)
		for v := 0; v < wideLive; v++ {
			w := (v + 1) % wideLive
			fmt.Fprintf(&b, "\t\t\t\tv%d_%d = v%d_%d * %d + v%d_%d - j%d;\n", i, v, i, v, rng.Intn(4)+2, i, w, i)
		}
		b.WriteString("\t\t\t}\n\t\t\tacc = acc")
		for v := 0; v < wideLive; v++ {
			fmt.Fprintf(&b, " + v%d_%d", i, v)
		}
		fmt.Fprintf(&b, " - i%d;\n\t\t\tacc = acc %% 100003;\n\t\t}\n", i)
		fmt.Fprintf(&b, "\t} else {\n\t\tacc = acc - %d;\n\t}\n", i+1)
		fmt.Fprintf(&b, "\twout[%d] = acc;\n", i%64)
	}
	b.WriteString("\treturn acc;\n}\n\nint main() {\n\tprint(wide(5));\n\tprint(wide(7));\n\treturn 0;\n}\n")
	return b.String()
}

// deepSource returns a program whose main is a chain of `depth` nested
// if statements, each arm one level deeper than its parent. Every
// condition holds at run time, so the whole chain executes; the cost is
// in the front end (lowering) and in region-tree depth, not in the
// interpreter.
func deepSource(rng *rand.Rand, depth int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tint x = 1;\n\tint acc = 0;\n")
	for d := 0; d < depth; d++ {
		fmt.Fprintf(&b, "if (x < %d) {\nacc = acc + %d;\n", d+2+rng.Intn(3), rng.Intn(7)+1)
		if d%2 == 1 {
			b.WriteString("x = x + 1;\n")
		}
	}
	for d := 0; d < depth; d++ {
		b.WriteString("}\n")
	}
	b.WriteString("\tprint(acc);\n\tprint(x);\n\treturn acc % 7;\n}\n")
	return b.String()
}

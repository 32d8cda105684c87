package lower_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/testutil"
)

// TestLoweringScalesWithDepth: lowering an if nest twice as deep takes
// about twice as long (region checking used to cost O(instrs × depth),
// which made the ratio about four). Each depth takes the best of three
// runs, each after a collection, and the two depths alternate, so a
// burst of scheduler or GC noise hits both alike.
func TestLoweringScalesWithDepth(t *testing.T) {
	lowerTime := func(depth int) time.Duration {
		prog, err := parser.Parse(testutil.NestedIfs(depth))
		if err != nil {
			t.Fatal(err)
		}
		if err := sem.Check(prog); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		if _, err := lower.Lower(prog, lower.Options{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const n = 2000
	t1, t2 := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		t1, t2 = min(t1, lowerTime(n)), min(t2, lowerTime(2*n))
	}
	t.Logf("lower: depth %d %v, depth %d %v", n, t1, 2*n, t2)
	if ratio := float64(t2) / float64(t1); ratio >= 3 {
		t.Errorf("depth %d took %.1f× depth %d (%v vs %v), want < 3×", 2*n, ratio, n, t2, t1)
	}
}

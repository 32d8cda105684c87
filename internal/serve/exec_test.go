package serve_test

import (
	"context"
	"errors"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/serve"
)

// TestExecuteJobHugeGlobals: a tiny job that declares more global memory
// than the interpreter may reserve ends in a typed, invalid result at
// once instead of an allocation that kills the process.
// TestExecuteJobUnboundedRecursion: recursion that needs no memory words
// per call used to grow the Go stack until the runtime killed the
// process. It now stops at interp.MaxCallDepth with a stack overflow,
// well inside a 64 MiB Go stack.
func TestExecuteJobUnboundedRecursion(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	src := "int f(int x) { return f(x + 1); }\nint main() { return f(0); }\n"
	for _, alloc := range []string{"none", "rap", "gra"} {
		job := serve.Job{Source: src, Allocator: alloc, Verify: alloc != "none"}
		if alloc != "none" {
			job.K = 5
		}
		_, err := serve.ExecuteJob(context.Background(), job, serve.ExecOptions{})
		if !errors.Is(err, interp.ErrStackOverflow) || !strings.Contains(err.Error(), "stack overflow in f") {
			t.Fatalf("under %s: err = %v, want a stack overflow in f", alloc, err)
		}
		if got := serve.Classify(err); got != serve.StatusError {
			t.Errorf("under %s: status %q, want %q", alloc, got, serve.StatusError)
		}
	}
}

func TestExecuteJobHugeGlobals(t *testing.T) {
	for _, src := range []string{
		"int big[3000000000]; int main() { return 0; }",
		"int big[100000000]; int main() { big[5] = 1; return big[5]; }",
	} {
		for _, alloc := range []string{"none", "rap"} {
			job := serve.Job{Source: src, Allocator: alloc, Verify: alloc != "none"}
			if alloc != "none" {
				job.K = 5
			}
			start := time.Now()
			_, err := serve.ExecuteJob(context.Background(), job, serve.ExecOptions{})
			if !errors.Is(err, interp.ErrMemoryLayout) {
				t.Fatalf("%s under %s: err = %v, want ErrMemoryLayout", src, alloc, err)
			}
			if got := serve.Classify(err); got != serve.StatusInvalid {
				t.Errorf("%s under %s: status %q, want %q", src, alloc, got, serve.StatusInvalid)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s under %s: took %v", src, alloc, d)
			}
		}
	}
}

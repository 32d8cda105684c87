package rap

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// regScratch is the allocator's reusable dense scratch for the
// per-region helper sets (liveAtExit, usedIn, definedIn, the own-refs
// and vars sets of the graph build) and reference counts (refsInSpan).
// These used to be map[ir.Reg]bool / map[ir.Reg]int allocated fresh for
// every region of every build/colour/spill iteration — the hottest
// allocation sites in the walk. Registers are dense small integers, so
// a bitset (whose ForEach iterates ascending, giving the deterministic
// order the maps needed sortRegs for) and a flat count slice with a
// dirty list do the same job with no per-region allocation after
// warm-up.
//
// Scratch is per-allocator state: every speculative shard forks with
// its own regScratch, so concurrent subtree allocations never share a
// buffer.
type regScratch struct {
	// n is the register capacity of the liveness sets (at least
	// ir.Function.NextReg), refreshed after every code edit. Sets are
	// unioned with liveness sets, and bitset operations index by the
	// argument's width, so they may be no narrower.
	n      int
	sets   []*bitset.Set
	counts []*regCounts
}

// resize records the register universe size buffers must cover. Pooled
// buffers grow lazily on checkout.
func (s *regScratch) resize(n int) { s.n = n }

// getSet checks a cleared bitset with capacity for every register out
// of the pool.
func (s *regScratch) getSet() *bitset.Set {
	if len(s.sets) == 0 {
		return bitset.New(s.n)
	}
	b := s.sets[len(s.sets)-1]
	s.sets = s.sets[:len(s.sets)-1]
	b.Clear()
	b.Grow(s.n)
	return b
}

// putSet returns a checked-out bitset to the pool.
func (s *regScratch) putSet(b *bitset.Set) { s.sets = append(s.sets, b) }

// regCounts is a dense per-register counter with a dirty list, so
// resetting costs O(touched) rather than O(universe).
type regCounts struct {
	cnt   []int32
	dirty []ir.Reg
}

// inc increments r's count, growing past the declared universe if needed
// (mirroring bitset.Set's range tolerance).
func (c *regCounts) inc(r ir.Reg) {
	for int(r) >= len(c.cnt) {
		c.cnt = append(c.cnt, 0)
	}
	if c.cnt[r] == 0 {
		c.dirty = append(c.dirty, r)
	}
	c.cnt[r]++
}

// get returns r's count; registers outside the universe count zero.
func (c *regCounts) get(r ir.Reg) int {
	if int(r) >= len(c.cnt) {
		return 0
	}
	return int(c.cnt[r])
}

// getCounts checks a zeroed counter out of the pool.
func (s *regScratch) getCounts() *regCounts {
	var c *regCounts
	if len(s.counts) == 0 {
		c = &regCounts{}
	} else {
		c = s.counts[len(s.counts)-1]
		s.counts = s.counts[:len(s.counts)-1]
		for _, r := range c.dirty {
			c.cnt[r] = 0
		}
		c.dirty = c.dirty[:0]
	}
	for len(c.cnt) < s.n {
		c.cnt = append(c.cnt, 0)
	}
	return c
}

// putCounts returns a counter to the pool (reset happens on checkout).
func (s *regScratch) putCounts(c *regCounts) { s.counts = append(s.counts, c) }

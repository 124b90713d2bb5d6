package core

import (
	"sync"
	"sync/atomic"

	"buffopt/internal/obs"
)

// candArena recycles the dynamic program's candidate-list backing arrays
// through a process-wide sync.Pool. The bottom-up DP allocates one or two
// fresh lists per tree node (merge outputs, wire-sizing variants), and on
// the Section V workloads those transient slices dominated the allocation
// profile (~746k allocs on BenchmarkTableII before pooling). Each runVG
// invocation owns one arena, so the taken/returned counters form a strict
// per-run invariant — every list taken from the pool is returned exactly
// once before the run ends — that the stress tests assert via the
// "vg.pool.taken" and "vg.pool.returned" counters the arena flushes.
//
// Ownership discipline: each tree node's finished candidate list is owned
// by that node until its parent consumes it (merge or chain adoption); the
// consumer releases it. The root's list is released by runVG itself after
// the driver filter copies the survivors out. Slices handed to callers of
// runVG are therefore never pool-backed.
//
// The arena is safe for concurrent use: the parallel scheduler's workers
// share one arena and the counters are atomic.
type candArena struct {
	taken    atomic.Int64
	returned atomic.Int64
}

// candPool holds recycled candidate-list backing arrays. A candidate holds
// no pointer (its solution list is a slab index, see slab.go), so a
// pooled array retains nothing but itself and is never cleared.
var candPool = sync.Pool{}

// arenaMinCap is the smallest backing array the arena hands out; merges
// and sizing loops grow lists quickly, so tiny initial capacities only buy
// extra growth copies.
const arenaMinCap = 16

// get returns an empty candidate list with capacity at least capHint.
func (a *candArena) get(capHint int) []vgCand {
	if a != nil {
		a.taken.Add(1)
	}
	if capHint < arenaMinCap {
		capHint = arenaMinCap
	}
	if sp, _ := candPool.Get().(*[]vgCand); sp != nil {
		if cap(*sp) >= capHint {
			return (*sp)[:0]
		}
		// Too small for this request: put it back for a smaller one
		// rather than dropping the array on the floor.
		candPool.Put(sp)
	}
	return make([]vgCand, 0, capHint)
}

// put returns a list to the pool. The counter is bumped even for
// zero-capacity slices so the taken/returned invariant is a pure call
// count, immune to append having swapped the backing array.
func (a *candArena) put(s []vgCand) {
	if a != nil {
		a.returned.Add(1)
	}
	if cap(s) == 0 {
		return
	}
	sp := new([]vgCand)
	*sp = s[:0]
	candPool.Put(sp)
}

// flush publishes the arena's accounting to the obs registry. Called once
// per runVG; "vg.pool.taken" == "vg.pool.returned" is the no-leak
// invariant the race-gated stress tests check.
func (a *candArena) flush() {
	obs.Add("vg.pool.taken", a.taken.Load())
	obs.Add("vg.pool.returned", a.returned.Load())
}

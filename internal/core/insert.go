package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// Buffer insertion, Step 5 of Fig. 11: at a node, for each buffer type
// (and, in count-indexed mode, each resulting buffer count and each
// parity) the candidate producing the largest post-buffer slack, subject
// to the noise constraint R_b·I(v) ≤ NS(v) when noise is enforced — the
// boldface modification of Step 5.
//
// The bests live in a dense table indexed by (buffer, parity, cost) whose
// slots hold only the best's values and its source; the scan allocates
// nothing, and a winner's candidate and solution link are built after
// it. Three callers read the table out:
//
//   - insertBuffers appends every winner to the list, in a fixed order,
//     for pruneVG to sort — the classic step, used at branch nodes whose
//     merged list is not in order anyway.
//   - insertPrune, at a chain node, merges the winners into the child's
//     list, which is already in pruneVG's order, and prunes in the same
//     pass; only surviving winners are built.
//   - lishiNoiseMerge streams a branch node's merge pairs through the
//     table and merges the winners into the frontier walk the same way.
//
// The merge is only taken when the order it produces ascends strictly,
// so it returns exactly what pdqsort and pruneVG's scan return;
// otherwise the node falls back to the classic step.

// insertTable is the per-goroutine scratch of the DP's per-node steps.
// slots is the dense (buffer, parity, cost) insertion table — all zero
// between calls — and touched lists the slots one call filled, so
// emission and reset cost the winners, not the table. costIdx holds each
// source's position on the cost axis, span the axis length.
type insertTable struct {
	slots   []insertSlot
	touched []int
	costIdx []int32
	costs   []int
	span    int

	// rank's output: the winners' values, aligned with touched, and the
	// permutation that orders them.
	peeks []vgCand
	order []int32
	// byCin lists lib's buffer indexes by input capacitance, the load
	// every winner of that buffer carries.
	lib   *buffers.Library
	byCin []int

	// The Li–Shi merges' branch groups, frontier indexes and compatible
	// group pairs, and the frontier walk's pairs with their values and
	// the permutation that orders them.
	lg, rg []candGroup
	idx    []int
	pairs  []groupPair
	walk   [][2]int32
	wpeeks []vgCand
	worder []int32
}

// tablePool recycles insertion tables across runs, so a run's scratch
// starts at the size earlier runs grew it to.
var tablePool = sync.Pool{New: func() any { return new(insertTable) }}

// getInsertTable returns an empty table from the pool.
func getInsertTable() *insertTable { return tablePool.Get().(*insertTable) }

// release returns the table of a run that succeeded to the pool; every
// node step leaves the slots empty. A failed run drops its table rather
// than trust it.
func (t *insertTable) release() {
	t.lib = nil
	tablePool.Put(t)
}

// insertSlot is one (buffer, parity, cost) best: the post-buffer slack,
// the source's cost and buffer count (the tie-break keys), and the
// source itself — list index a−1, or, for a streamed branch merge, the
// pair (left a−1, right b). a == 0 marks an empty slot.
type insertSlot struct {
	q    float64
	cost int
	nbuf int32
	a, b int32
}

// insertBuffers appends the winners of Step 5 at node v to list, in a
// deterministic total order — cost, load, slack descending, buffer
// index, parity — so repeated runs and parallel schedules see
// byte-identical lists.
func insertBuffers(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions) []vgCand {
	tab := opts.ins
	tab.scanList(list, lib, opts)
	return tab.emit(v, list, lib, opts)
}

// insertPrune is Step 5 at a chain node v, fused with the prune that
// follows it: list is the child's finished list, still in pruneVG's
// order, so the winners are merged into it in one linear pass that also
// drops dominated candidates. With pruned set, the result is an arena
// list equal to pruneVG(insertBuffers(list)). Otherwise it is
// insertBuffers' list, for pruneVG to finish as before: always in safe
// pruning mode (whose 4-D scan this pass does not do), when there was
// nothing to insert, and when the merged order is not certain.
func insertPrune(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions) (_ []vgCand, pruned bool) {
	tab := opts.ins
	tab.scanList(list, lib, opts)
	if len(tab.touched) == 0 || opts.safePruning {
		return tab.emit(v, list, lib, opts), false
	}
	tab.rank(lib, true, opts.countIndexed)
	out, ok := tab.mergePrune(opts.arena.get(len(list)+len(tab.touched)), list, nil, v, lib, opts)
	if !ok {
		opts.arena.put(out)
		return tab.emit(v, list, lib, opts), false
	}
	if st := opts.stats; st != nil {
		st.generated += int64(len(tab.touched))
		st.pruned += int64(len(list) + len(tab.touched) - len(out))
	}
	tab.clearSlots()
	opts.arena.put(list)
	return out, true
}

// scanList offers every candidate of list to every buffer type.
func (t *insertTable) scanList(list []vgCand, lib *buffers.Library, opts vgOptions) {
	t.costAxis(len(list), func(i int) int { return list[i].cost }, opts.countIndexed, len(lib.Buffers))
	for bi := range lib.Buffers {
		b := &lib.Buffers[bi]
		w := b.Cost()
		inv := uint8(0)
		if b.Inverting {
			inv = 1
		}
		for i := range list {
			c := &list[i]
			if opts.noise && b.R*c.down > c.ns {
				continue // inserting here would violate downstream noise
			}
			if opts.countIndexed && c.cost+w > opts.maxBuffers {
				continue
			}
			k := (2*bi+int(c.pol^inv))*t.span + int(t.costIdx[i])
			t.offer(k, c.q-b.Delay(c.load), c.cost, c.nbuf, int32(i+1), 0)
		}
	}
}

// offer records a source candidate's post-buffer slack q in slot k if it
// beats the slot's best. Acceptance is value-canonical: on an exact
// slack tie the cheaper (then smaller) solution wins, and only a full
// tie keeps the one scanned first. The classic and Li–Shi merges emit
// candidates in different orders, so a first-wins rule alone would make
// the selected cost/nbuf depend on the engine.
func (t *insertTable) offer(k int, q float64, cost, nbuf int, a, b int32) {
	s := &t.slots[k]
	if s.a == 0 {
		t.touched = append(t.touched, k)
	} else if !(q > s.q) && (q != s.q || !(cost < s.cost || cost == s.cost && int32(nbuf) < s.nbuf)) {
		return
	}
	*s = insertSlot{q: q, cost: cost, nbuf: int32(nbuf), a: a, b: b}
}

// emit appends the winners, built and linked to their sources in list,
// in insertBuffers' order, and empties the table.
func (t *insertTable) emit(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions) []vgCand {
	if len(t.touched) == 0 {
		return list
	}
	t.rank(lib, false, opts.countIndexed)
	list = slices.Grow(list, len(t.order))
	for _, w := range t.order {
		k := t.touched[w]
		list = append(list, t.buffered(v, lib, k, &list[t.slots[k].a-1], opts.sol))
	}
	if opts.stats != nil {
		opts.stats.generated += int64(len(t.touched))
	}
	t.clearSlots()
	return list
}

// insertValueOrder is the leading keys of insertBuffers' emission order:
// cost, load, slack descending (then buffer index and parity, see rank).
func insertValueOrder(a, b *vgCand) int {
	switch {
	case a.cost != b.cost:
		return cmp.Compare(a.cost, b.cost)
	case a.load != b.load:
		return cmpAsc(a.load, b.load)
	}
	return cmpDesc(a.q, b.q)
}

// peek is the candidate slot k's winner yields, without its solution
// link: the source driven by the slot's buffer, at the slot's parity.
func (t *insertTable) peek(lib *buffers.Library, k int) vgCand {
	s := &t.slots[k]
	b := &lib.Buffers[k/(2*t.span)]
	return vgCand{
		load: b.Cin,
		q:    s.q,
		down: 0,
		ns:   b.NoiseMargin,
		nbuf: int(s.nbuf) + 1,
		cost: s.cost + b.Cost(),
		pol:  uint8(k/t.span) & 1,
	}
}

// buffered builds slot k's winner, linked to its source src through a
// new link written by w.
func (t *insertTable) buffered(v rctree.NodeID, lib *buffers.Library, k int, src *vgCand, w *slabWriter) vgCand {
	c := t.peek(lib, k)
	c.sol = w.add(solLink{node: v, buf: int32(k / (2 * t.span)), prev: [2]solRef{src.sol}})
	return c
}

// rank lists the filled slots in touched and their winners' values in
// peeks, and sets order to the permutation that sorts them: by pruneVG's
// order when byPrune is set, by insertBuffers' otherwise. The table is read
// by cost slot, parity and input capacitance, which is already pruneVG's
// order whenever buffer weights are equal and no two buffers share an
// input capacitance, so the sort is usually skipped. Sorting a
// permutation rather than built candidates moves 4-byte indexes, not
// 56-byte candidates.
func (t *insertTable) rank(lib *buffers.Library, byPrune, countIndexed bool) {
	if len(t.touched) == 0 {
		t.peeks, t.order = t.peeks[:0], t.order[:0]
		return
	}
	if t.lib != lib {
		t.lib = lib
		t.byCin = t.byCin[:0]
		for bi := range lib.Buffers {
			t.byCin = append(t.byCin, bi)
		}
		slices.SortStableFunc(t.byCin, func(x, y int) int {
			return cmp.Compare(lib.Buffers[x].Cin, lib.Buffers[y].Cin)
		})
	}
	t.touched, t.peeks, t.order = t.touched[:0], t.peeks[:0], t.order[:0]
	for c := 0; c < t.span; c++ {
		for pol := 0; pol < 2; pol++ {
			for _, bi := range t.byCin {
				if k := (2*bi+pol)*t.span + c; t.slots[k].a != 0 {
					t.order = append(t.order, int32(len(t.touched)))
					t.touched = append(t.touched, k)
					t.peeks = append(t.peeks, t.peek(lib, k))
				}
			}
		}
	}
	order := func(x, y int32) int {
		a, b := &t.peeks[x], &t.peeks[y]
		if byPrune {
			return pruneCmp(a, b, countIndexed)
		}
		if c := insertValueOrder(a, b); c != 0 {
			return c
		}
		// Within one (cost, load, slack) the slot index orders by
		// buffer, then parity.
		return cmp.Compare(t.touched[x]/t.span, t.touched[y]/t.span)
	}
	if !slices.IsSortedFunc(t.order, order) {
		slices.SortFunc(t.order, order)
	}
}

// mergePrune merges the node's run with the ranked winners and applies
// pruneVG's (2-D) dominance scan on the way, appending the survivors to
// out. The run is left itself at a chain node (right == nil), or, at a
// branch node, the frontier walk over (left, right) that orderWalk left
// in the table. Run pairs and winners are built only if they survive; a
// winner is linked to its source, left[a−1] or the pair (left[a−1],
// right[b]).
//
// ok is false, and out unusable, when the merged order is not certain:
// some adjacent pair is out of order or compares equal. Equal neighbours
// count as uncertain even where they might be the same candidate twice
// (which a pruned list never holds): a false alarm only costs the
// classic path.
func (t *insertTable) mergePrune(out, left, right []vgCand, v rctree.NodeID, lib *buffers.Library, opts vgOptions) (_ []vgCand, ok bool) {
	ci := opts.countIndexed
	run, order := left, []int32(nil)
	if right != nil {
		run, order = t.wpeeks, t.worder
	}
	var prev *vgCand
	bestQ := math.Inf(-1)
	for i, j := 0, 0; i < len(run) || j < len(t.order); {
		ri := i
		if order != nil && i < len(run) {
			ri = int(order[i])
		}
		fromRun := j == len(t.order) || i < len(run) && pruneCmp(&run[ri], &t.peeks[t.order[j]], ci) <= 0
		var e *vgCand
		if fromRun {
			e = &run[ri]
		} else {
			e = &t.peeks[t.order[j]]
		}
		if prev != nil {
			if pruneCmp(prev, e, ci) >= 0 {
				return out, false
			}
			if prev.pol != e.pol || ci && prev.cost != e.cost {
				bestQ = math.Inf(-1)
			}
		}
		if e.q > bestQ {
			bestQ = e.q
			switch {
			case fromRun && right == nil:
				out = append(out, *e)
			case fromRun:
				p := t.walk[ri]
				out = append(out, mergedCand(left[p[0]], right[p[1]], opts.sol))
			default:
				k := t.touched[t.order[j]]
				s := &t.slots[k]
				src := left[s.a-1]
				if right != nil {
					src = mergedCand(src, right[s.b], opts.sol)
				}
				out = append(out, t.buffered(v, lib, k, &src, opts.sol))
			}
		}
		prev = e
		if fromRun {
			i++
		} else {
			j++
		}
	}
	return out, true
}

// clearSlots empties the slots one scan touched, restoring the table's
// all-zero state between calls.
func (t *insertTable) clearSlots() {
	for _, k := range t.touched {
		t.slots[k] = insertSlot{}
	}
	t.touched = t.touched[:0]
}

// costAxis fills costIdx for n sources whose costs cost(i) returns, sets
// span to the cost axis length and sizes the slot table for nbufs buffer
// types. A buffer adds the same weight to every source, so the axis
// indexes source costs: the span from the cheapest to the dearest
// source, or, when that span is much longer than n (large buffer
// weights), the rank among the distinct costs. Without count indexing
// every source shares one cost slot.
func (t *insertTable) costAxis(n int, cost func(int) int, countIndexed bool, nbufs int) {
	t.costIdx = slices.Grow(t.costIdx[:0], n)[:n]
	t.span = 1
	switch {
	case !countIndexed || n == 0:
		clear(t.costIdx)
	default:
		lo, hi := cost(0), cost(0)
		for i := range n {
			lo, hi = min(lo, cost(i)), max(hi, cost(i))
		}
		if span := hi - lo + 1; span <= 4*n {
			for i := range n {
				t.costIdx[i] = int32(cost(i) - lo)
			}
			t.span = span
			break
		}
		t.costs = t.costs[:0]
		for i := range n {
			t.costs = append(t.costs, cost(i))
		}
		slices.Sort(t.costs)
		t.costs = slices.Compact(t.costs)
		for i := range n {
			r, _ := slices.BinarySearch(t.costs, cost(i))
			t.costIdx[i] = int32(r)
		}
		t.span = len(t.costs)
	}
	if need := nbufs * 2 * t.span; len(t.slots) < need {
		t.slots = make([]insertSlot, need)
	}
}

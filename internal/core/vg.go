package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// vgStats accumulates one runVG invocation's telemetry locally — plain
// int64 fields bumped inside the hot loops — and flushes to the obs
// registry once at the end, so instrumentation costs the DP a handful of
// atomic adds per run rather than per candidate. The Shi/Li O(bn²)
// candidate-growth claim (PAPERS.md) is checked against exactly these
// numbers: generated vs. pruned is the prune ratio, highwater is the
// per-node list-length bound. In parallel runs each worker owns a private
// vgStats, absorbed into the run's at the end, so the published totals are
// schedule-independent.
type vgStats struct {
	generated int64 // candidates created (sinks, merges, buffer insertions, width variants)
	links     int64 // solution links written to the slab
	pruned    int64 // candidates discarded by dominance pruning
	merged    int64 // candidates emitted by branch merges
	nodes     int64 // tree nodes visited
	highwater int64 // longest candidate list observed at any node
	fallbacks int64 // Li–Shi branch nodes that fell back to the cross product
}

func (s *vgStats) list(n int) {
	if int64(n) > s.highwater {
		s.highwater = int64(n)
	}
}

// fellBack counts one Li–Shi branch node that ran the classic path.
func (s *vgStats) fellBack() {
	if s != nil {
		s.fallbacks++
	}
}

// absorb folds a worker's private stats into the run total.
func (s *vgStats) absorb(o *vgStats) {
	s.generated += o.generated
	s.pruned += o.pruned
	s.merged += o.merged
	s.nodes += o.nodes
	s.links += o.links
	s.fallbacks += o.fallbacks
	if o.highwater > s.highwater {
		s.highwater = o.highwater
	}
}

func (s *vgStats) flush() {
	obs.Add("vg.candidates.generated", s.generated)
	obs.Add("vg.candidates.pruned", s.pruned)
	obs.Add("vg.candidates.merged", s.merged)
	obs.Add("vg.nodes.visited", s.nodes)
	obs.Add("vg.slab.links", s.links)
	if s.fallbacks > 0 {
		obs.Add("vg.lishi.fallbacks", s.fallbacks)
	}
	obs.SetMax("vg.list.highwater", s.highwater)
}

// vgCand is an Algorithm 3 candidate: the five-tuple (C, q, I, NS, M) of
// Section IV-A, plus the buffer count for the Lillis extension and the
// inversion parity for libraries containing inverters. sol heads the
// candidate's solution list in the run's slab (see slab.go); the struct
// holds no pointer, so candidate lists are memory the GC never scans.
type vgCand struct {
	load float64 // C: downstream capacitance seen at the node
	q    float64 // slack at the node
	down float64 // I: downstream coupling current
	ns   float64 // NS: noise slack
	nbuf int     // buffers used in the subtree solution
	cost int     // Problem 3 weight of those buffers (Lillis power function)
	pol  uint8   // parity of inverting stages to every sink (0 = in phase)
	sol  solRef
}

// vgOptions configures one run of the dynamic program.
type vgOptions struct {
	noise        bool         // enforce noise constraints (BuffOpt) or not (DelayOpt)
	params       noise.Params // estimation-mode noise parameters
	countIndexed bool         // keep per-buffer-count lists (Lillis [18])
	maxBuffers   int          // with countIndexed: drop candidates whose cost exceeds this cap (0 allows no buffer)
	safePruning  bool         // include (I, NS) in the dominance test
	// widths are the wire width multipliers available per wire (Lillis
	// [18] simultaneous wire sizing); nil or empty means {1}.
	widths []float64
	// fringe is the fraction of a minimum-width wire's capacitance that
	// does not scale with width (fringe + sidewall); the rest is area
	// capacitance multiplied by the width. Zero means 0.5.
	fringe float64
	// budget bounds the run; nil means unlimited. Checked at every node
	// of the bottom-up walk and inside the merge and prune loops.
	budget *guard.Budget
	// workers bounds the goroutines the bottom-up walk may use:
	// 0 = automatic (GOMAXPROCS, with a tree-size floor), 1 = serial,
	// N > 1 = exactly N, parallel even on small trees (the differential
	// suite forces the parallel path this way).
	workers int
	// stats, when non-nil, accumulates candidate counts for the run.
	// runVG installs its own (per worker in parallel runs); the field
	// exists so the helpers below see it without signature churn.
	stats *vgStats
	// arena recycles candidate-list backing arrays for the run; installed
	// by runVG alongside stats.
	arena *candArena
	// ins is insertBuffers' scratch table, one per goroutine of the walk
	// (runVG installs it, runVGParallel gives each worker its own).
	ins *insertTable
	// slab stores the run's solution links; the caller owns it and keeps
	// it until the returned candidates' lists have been read (optimize
	// takes one per solve, a session passes its memo's). Required.
	slab *solSlab
	// sol is the slab writer of the goroutine running the node step:
	// runVG installs one for the gate and the serial walk, runVGParallel
	// one per worker.
	sol *slabWriter
	// engine selects the candidate-list organization; runVG resolves the
	// public name ("auto" included) to EngineVG or EngineLiShi before the
	// walk starts, so computeNode only ever sees the two concrete names.
	engine string
	// memo, when non-nil, turns the run into a memoized (ECO) re-solve:
	// the top-down gate (memoGate) loads finished candidate lists for
	// every subtree whose entry is current, and only the remaining
	// compute set runs the DP — with every computed list stored back.
	// Results are bit-identical to a memo-free run; the delta
	// differential suite is the gate.
	memo *memoRun
}

// fastMergeOK reports whether computeNode may use the Li–Shi sorted
// frontier walk at a branch node. The Li–Shi argument is about the 2-D
// (C, q) dominance that pruneVG applies. Noise runs use it too, through
// lishiNoiseMerge: their buffer insertion still sees every merge pair
// (streamed, never materialized), only the node's list comes from the
// walk. Safe pruning keeps a 4-D frontier the walk would cut, so those
// runs use the classic cross product node by node and stay bit-identical
// that way.
func (o vgOptions) fastMergeOK() bool {
	return o.engine == EngineLiShi && !o.safePruning
}

// minParallelNodes gates automatic parallelism: below this tree size the
// per-node scheduling overhead outweighs the DP work, so workers == 0
// stays serial. An explicit workers > 1 bypasses the gate.
const minParallelNodes = 128

// maxVGWorkers caps an explicit worker request; beyond the hardware's
// parallelism extra goroutines only add scheduling churn.
const maxVGWorkers = 64

// workerCount resolves the effective parallelism for a tree of n nodes.
func (o vgOptions) workerCount(n int) int {
	w := o.workers
	switch {
	case w < 0 || w == 1:
		return 1
	case w == 0:
		if n < minParallelNodes {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxVGWorkers {
		w = maxVGWorkers
	}
	if w > n {
		w = n
	}
	return w
}

// wireVariant returns the electrical parameters of a wire at width wd.
func (o vgOptions) wireVariant(w rctree.Wire, wd float64) (r, c float64) {
	if wd == 1 {
		return w.R, w.C
	}
	fr := o.fringe
	if fr == 0 {
		fr = 0.5
	}
	return w.R / wd, w.C * (fr + (1-fr)*wd)
}

// runVG executes the bottom-up dynamic program of Figs. 10–11 and returns
// the root candidates after the driver's delay and noise have been applied
// and infeasible candidates (noise violations when opts.noise is set, or
// inverted polarity) have been discarded. The result is pruned and sorted
// by ascending buffer count.
//
// The walk runs serially or on a bounded worker pool (opts.workers; see
// runVGParallel) — the two paths execute the identical per-node
// computation (computeNode) on the identical inputs, so their outputs are
// bit-identical; the differential suite in differential_test.go enforces
// exactly that.
func runVG(t *rctree.Tree, lib *buffers.Library, opts vgOptions) ([]vgCand, error) {
	if err := t.Validate(); err != nil {
		return nil, invalid(err)
	}
	if !t.IsBinary() {
		return nil, invalid(fmt.Errorf("core: the dynamic program requires a binary tree; call Binarize first"))
	}
	if err := lib.Validate(); err != nil {
		return nil, invalid(err)
	}
	if opts.noise {
		if err := opts.params.Validate(); err != nil {
			return nil, err
		}
	}
	for i, w := range opts.widths {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, invalid(fmt.Errorf("core: wire width %d = %g must be positive and finite", i, w))
		}
	}
	if math.IsNaN(opts.fringe) || opts.fringe < 0 || opts.fringe > 1 {
		return nil, invalid(fmt.Errorf("core: sizing fringe fraction %g must lie in [0, 1]", opts.fringe))
	}
	if err := opts.budget.CheckTreeNodes(t.Len()); err != nil {
		return nil, err
	}

	opts.engine = resolveEngine(opts, lib)
	obs.Inc("vg.run.engine." + opts.engine)

	var st vgStats
	opts.stats = &st
	defer st.flush()
	// The DP span hangs off the budget's context, which carries the
	// request's trace (server → tier → here), so per-net DP time is
	// visible inside cross-process traces.
	_, vgSpan := obs.Span(opts.budget.Context(), "vg.run")
	vgSpan.SetAttr("engine", opts.engine)
	defer vgSpan.End()

	ar := &candArena{}
	opts.arena = ar
	defer ar.flush()
	opts.ins = getInsertTable()
	w := opts.slab.writer()
	opts.sol = &w
	defer func() { st.links += w.close() }()

	lists := make([][]vgCand, t.Len())
	var err error
	// A memoized run gates first: hit subtrees load their finished lists
	// and only the remaining compute set (in postorder, ancestor-closed)
	// runs the DP below.
	order := t.Postorder()
	if opts.memo != nil {
		opts.memo.suffix = memoKeySuffix(opts, lib)
		order, err = memoGate(t, opts, lists)
	}
	if err == nil {
		if workers := opts.workerCount(len(order)); workers > 1 {
			obs.Inc("vg.run.parallel")
			obs.SetMax("vg.parallel.workers", int64(workers))
			vgSpan.SetAttr("dp", "parallel")
			err = runVGParallel(t, lib, opts, lists, workers, order)
		} else {
			obs.Inc("vg.run.serial")
			vgSpan.SetAttr("dp", "serial")
			err = runVGSerial(t, lib, opts, lists, order)
		}
	}
	if opts.memo != nil {
		opts.memo.flush(vgSpan)
	}
	if err != nil {
		releaseLists(ar, lists)
		return nil, err
	}
	opts.ins.release()

	// Add the driver (Steps 2–3 of Fig. 10) and filter. The survivors are
	// copied into a plain slice — never pool-backed — because they escape
	// to the caller.
	var out []vgCand
	for _, c := range lists[t.Root()] {
		if c.pol != 0 {
			continue // inverted signal at the sinks
		}
		if opts.noise && t.DriverResistance*c.down > c.ns {
			continue // eq. 11 violated at the source gate
		}
		c.q -= t.DriverDelay + t.DriverResistance*c.load
		out = append(out, c)
	}
	ar.put(lists[t.Root()])
	lists[t.Root()] = nil
	out, err = pruneVG(out, opts)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b vgCand) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		return cmpDesc(a.q, b.q)
	})
	return out, nil
}

// The DP's sort comparators are written so that cmp(a, b) < 0 holds
// exactly when the field-by-field less order holds. slices.SortFunc runs
// the same pdqsort as the sort package's reflection-based Slice, so lists
// — ties included — come out permuted exactly as that sort permuted them
// with the less function, which the golden answers and the work-counter
// pins depend on.

// cmpAsc orders two floats ascending, for a caller that has already
// established a != b.
func cmpAsc(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

// cmpDesc orders two floats descending; equal floats compare equal.
func cmpDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a == b:
		return 0
	}
	return 1
}

// runVGSerial is the single-goroutine bottom-up walk over order — the
// full postorder for a from-scratch run, or a memoized run's compute set
// (children always before parents either way).
func runVGSerial(t *rctree.Tree, lib *buffers.Library, opts vgOptions, lists [][]vgCand, order []rctree.NodeID) error {
	for _, v := range order {
		if err := computeNode(t, lib, opts, v, lists); err != nil {
			return err
		}
	}
	return nil
}

// releaseLists returns every still-owned candidate list to the arena (the
// error path: a failed run leaves finished subtrees behind).
func releaseLists(ar *candArena, lists [][]vgCand) {
	for i, l := range lists {
		if l != nil {
			ar.put(l)
			lists[i] = nil
		}
	}
}

// computeNode performs the dynamic program's work for one tree node:
// build the node's candidate list from its children's finished lists
// (Steps 1–5 of Fig. 11), prune, and charge the parent wire. It is the
// single code path shared by the serial walk and the parallel scheduler —
// the computation depends only on the children's lists, never on
// evaluation order, which is what makes parallel results bit-identical to
// serial ones.
//
// List ownership: the node consumes (and releases to the arena) its
// children's lists and owns its own list until its parent consumes it; on
// error, every list the node still owns has been released.
func computeNode(t *rctree.Tree, lib *buffers.Library, opts vgOptions, v rctree.NodeID, lists [][]vgCand) error {
	st := opts.stats
	ar := opts.arena
	st.nodes++
	// The budget gate for the whole dynamic program: one context check
	// per node, plus candidate-count checks below wherever a list can
	// grow.
	if err := opts.budget.Check(); err != nil {
		return err
	}
	node := t.Node(v)
	bufferHere := node.BufferOK && v != t.Root()
	// Steps 5 and 7 (insertion and pruning) may already be done by the
	// branch merge or the chain node's fused insertion.
	inserted, pruned := false, false
	var list []vgCand
	switch {
	case node.Kind == rctree.Sink:
		st.generated++
		list = append(ar.get(1), vgCand{
			load: node.Cap,
			q:    node.RAT,
			down: 0,
			ns:   node.NoiseMargin,
			pol:  0,
		})
	case len(node.Children) == 1:
		// Adopt the child's list wholesale: it is dead once the parent
		// runs, so the chain node extends it in place (no copy).
		c := node.Children[0]
		list, lists[c] = lists[c], nil
	case len(node.Children) == 2:
		l, r := node.Children[0], node.Children[1]
		var merged []vgCand
		var err error
		switch {
		case !opts.fastMergeOK():
			merged, err = mergeVG(lists[l], lists[r], opts)
		case opts.noise:
			merged, pruned, err = lishiNoiseMerge(v, lists[l], lists[r], lib, opts, bufferHere)
			inserted = true
		default:
			merged, err = lishiMerge(lists[l], lists[r], opts)
		}
		ar.put(lists[l])
		ar.put(lists[r])
		lists[l], lists[r] = nil, nil
		if err != nil {
			ar.put(merged)
			return err
		}
		list = merged
	default:
		return fmt.Errorf("core: internal node %d has no children", v)
	}

	// Step 5: consider inserting each buffer type at v. A chain node's
	// list is its child's, still in prune order, so the winners are
	// merged into it (and pruned) rather than the whole list sorted again.
	switch {
	case !bufferHere || inserted:
	case len(node.Children) == 1:
		list, pruned = insertPrune(v, list, lib, opts)
	default:
		list = insertBuffers(v, list, lib, opts)
	}

	var err error
	if !pruned {
		if list, err = pruneVG(list, opts); err != nil {
			ar.put(list)
			return err
		}
	}
	if err := opts.budget.CheckCandidates(len(list)); err != nil {
		ar.put(list)
		return err
	}

	// Step 6: charge the parent wire, once per available width. The
	// coupling current I_w is a sidewall quantity and does not change
	// with width; the resistance drops and the ground capacitance
	// grows, which is why widening is itself a noise fix.
	if v != t.Root() {
		w := node.Wire
		iw := opts.params.WireCurrent(w)
		widths := opts.widths
		if len(widths) == 0 {
			widths = oneWidth
		}
		if len(widths) == 1 && widths[0] == 1 {
			// The common no-sizing case charges the wire in place: same
			// arithmetic, in the same order, as the sized loop below with
			// wd == 1 — just without a second list.
			for i := range list {
				c := &list[i]
				c.q -= w.R * (w.C/2 + c.load)
				c.load += w.C
				c.ns -= w.R * (c.down + iw/2)
				c.down += iw
			}
		} else {
			sized := ar.get(len(list) * len(widths))
			for _, c := range list {
				for _, wd := range widths {
					r, cw := opts.wireVariant(w, wd)
					nc := c
					nc.q -= r * (cw/2 + c.load)
					nc.load += cw
					nc.ns -= r * (c.down + iw/2)
					nc.down += iw
					if wd != 1 {
						nc.sol = opts.sol.add(solLink{node: v, buf: widthLink, width: wd, prev: [2]solRef{c.sol}})
					}
					sized = append(sized, nc)
				}
			}
			st.generated += int64(len(sized) - len(list))
			ar.put(list)
			list = sized
			list, err = pruneVG(list, opts)
			if err != nil {
				ar.put(list)
				return err
			}
		}
		if err := opts.budget.CheckCandidates(len(list)); err != nil {
			ar.put(list)
			return err
		}
	}
	st.list(len(list))
	if opts.memo != nil {
		opts.memo.store(t, v, list)
	}
	lists[v] = list
	return nil
}

// oneWidth is the default (no sizing) width set.
var oneWidth = []float64{1}

// mergeVG combines the candidate lists of two sibling branches: loads and
// currents add, slacks take the minimum (Steps 3–4 of Fig. 11). Only
// parity-compatible pairs merge. The pruned per-branch frontiers are small,
// so the full cross product is used; pruning immediately follows in the
// caller. The cross product is where multi-buffer candidate growth
// compounds, so the budget is consulted as the output grows. The output
// list comes from the arena; on error the caller releases it.
func mergeVG(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	out := opts.arena.get(len(left) + len(right))
	tick := 0
	for _, a := range left {
		for _, b := range right {
			// Budget gate at stride boundaries: candidate cap and context
			// together, so the common case costs two integer ops.
			if tick++; tick >= budgetStride {
				tick = 0
				if err := opts.budget.CheckCandidates(len(out)); err != nil {
					return out, err
				}
			}
			if a.pol != b.pol {
				continue
			}
			if opts.countIndexed && a.cost+b.cost > opts.maxBuffers {
				continue
			}
			out = append(out, mergedCand(a, b, opts.sol))
		}
	}
	if err := opts.budget.CheckCandidates(len(out)); err != nil {
		return out, err
	}
	if opts.stats != nil {
		opts.stats.merged += int64(len(out))
		opts.stats.generated += int64(len(out))
	}
	return out, nil
}

// mergedCand combines one candidate from each sibling branch — a from
// the left child, b from the right: loads and currents add, slacks take
// the minimum (Steps 3–4 of Fig. 11). The single shared construction for
// every merge implementation (classic cross product and the Li–Shi
// frontier walk), so engines cannot drift in arithmetic or in solution
// linking. When both sides carry decisions, the pair's list is a
// junction link joining the two; it records nothing itself, so building
// it never reads a link.
func mergedCand(a, b vgCand, w *slabWriter) vgCand {
	c := pairValues(&a, &b)
	switch {
	case a.sol == 0:
		c.sol = b.sol
	case b.sol == 0:
		c.sol = a.sol
	default:
		c.sol = w.add(solLink{buf: junctionLink, prev: [2]solRef{a.sol, b.sol}})
	}
	return c
}

// pairValues is mergedCand without the solution link: the values the
// streamed insertion and the walk compute for a pair before deciding
// whether it is worth building.
func pairValues(a, b *vgCand) vgCand {
	return vgCand{
		load: a.load + b.load,
		q:    math.Min(a.q, b.q),
		down: a.down + b.down,
		ns:   math.Min(a.ns, b.ns),
		nbuf: a.nbuf + b.nbuf,
		cost: a.cost + b.cost,
		pol:  a.pol,
	}
}

// pruneVG removes inferior candidates (Step 7 of Fig. 11): within each
// (parity[, buffer count]) group, candidate α1 is inferior to α2 iff
// C1 ≥ C2 and q1 ≤ q2 — the paper's rule — and additionally, in safe
// pruning mode, I1 ≥ I2 and NS1 ≤ NS2, which restores exactness for
// multi-buffer libraries at the cost of longer lists (see the discussion
// in Section IV-C). Safe pruning is quadratic in the group size, so the
// dominance scan honors the budget's context.
//
// The scan works entirely in place: one deterministic total-order sort
// groups the list — (buffer count,) parity, load ascending, slack
// descending, then the remaining fields as tiebreakers — and survivors are
// compacted into the front of the same backing array. No maps, no
// per-group slices, no allocation; the returned slice aliases the input.
// The sort is skipped when the list's order is already certain (see
// certainOrder), as it usually is at the root and at chain nodes
// without a buffer site.
func pruneVG(list []vgCand, opts vgOptions) ([]vgCand, error) {
	if len(list) <= 1 {
		return list, nil
	}
	if !certainOrder(list, opts.countIndexed) {
		slices.SortFunc(list, func(a, b vgCand) int { return pruneCmp(&a, &b, opts.countIndexed) })
	}

	sameGroup := func(a, b *vgCand) bool {
		if a.pol != b.pol {
			return false
		}
		return !opts.countIndexed || a.cost == b.cost
	}

	origLen := len(list)
	out := list[:0]
	pacer := opts.budget.Pacer(1024)
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameGroup(&list[i], &list[j]) {
			j++
		}
		groupStart := len(out)
		if !opts.safePruning {
			bestQ := math.Inf(-1)
			for k := i; k < j; k++ {
				if c := list[k]; c.q > bestQ {
					out = append(out, c)
					bestQ = c.q
				}
			}
		} else {
			for k := i; k < j; k++ {
				if err := pacer.Tick(); err != nil {
					return list[:origLen], err
				}
				c := list[k]
				dominated := false
				for gi := groupStart; gi < len(out); gi++ {
					g := &out[gi]
					if g.load <= c.load && g.q >= c.q && g.down <= c.down && g.ns >= c.ns {
						dominated = true
						break
					}
				}
				if !dominated {
					out = append(out, c)
				}
			}
		}
		i = j
	}
	if opts.stats != nil {
		opts.stats.pruned += int64(origLen - len(out))
	}
	return out, nil
}

// pruneOrder is pruneVG's grouping order after the count-indexed cost
// key: parity, load ascending, slack descending, then the remaining
// fields as total-order tiebreakers — dominance-relevant fields first, so
// equal (load, q) candidates survive in a deterministic order.
func pruneOrder(a, b *vgCand) int {
	switch {
	case a.pol != b.pol:
		return cmp.Compare(a.pol, b.pol)
	case a.load != b.load:
		return cmpAsc(a.load, b.load)
	case a.q != b.q:
		return cmpDesc(a.q, b.q)
	case a.down != b.down:
		return cmpAsc(a.down, b.down)
	case a.ns != b.ns:
		return cmpDesc(a.ns, b.ns)
	case a.cost != b.cost:
		return cmp.Compare(a.cost, b.cost)
	}
	return cmp.Compare(a.nbuf, b.nbuf)
}

// pruneCmp is pruneVG's sort order: the buffer count first when lists are
// count-indexed, then pruneOrder.
func pruneCmp(a, b *vgCand, countIndexed bool) int {
	if countIndexed && a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	return pruneOrder(a, b)
}

// certainOrder reports whether list ascends strictly in pruneVG's order.
// Then every correct sort — pdqsort too — returns it unchanged, so
// skipping the sort cannot change a result. Equal neighbours are left to
// the sort: its permutation of two equal candidates with different links
// decides which link survives.
func certainOrder(list []vgCand, countIndexed bool) bool {
	for k := 1; k < len(list); k++ {
		if pruneCmp(&list[k-1], &list[k], countIndexed) >= 0 {
			return false
		}
	}
	return true
}

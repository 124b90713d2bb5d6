package core

import (
	"slices"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// This file implements the Li–Shi fast multi-type branch merge
// (PAPERS.md, arXiv:0710.4691): the one super-linear step of the classic
// dynamic program — the O(L1·L2) cross product at every branch node — is
// replaced by an O(L1+L2) two-pointer walk over the branches' Pareto
// frontiers, cutting the whole DP from O(b²n²) to O(bn²) for a b-type
// library. Everything else (sink seeding, pruning, wire charging) is the
// one computeNode path VG runs too — the engine swaps only the branch
// step inside it; it changes how merge candidates are enumerated, never
// their arithmetic (mergedCand is shared) and never which values survive
// pruning. The dense insertion table and the pdqsort orders are shared by
// both engines.
//
// Why the walk loses nothing, exactly:
//
// Each input list arrives grouped by parity (and, count-indexed, cost),
// with strictly ascending load inside every group — pruneVG's output
// invariant, which the parent-wire charge preserves up to rounding (it
// adds the same constant to every load, and a + C can round onto b + C).
// lishiGroups checks the strict order while it splits the groups; where
// it fails the node falls back to the cross product. Slack need not be
// monotone by the time the list reaches its parent (the wire charge
// subtracts R·load, more from larger loads), so the group's 2-D Pareto
// frontier is recovered first: a prefix-max scan keeps the indices whose
// slack strictly exceeds every earlier slack in the group. A skipped
// candidate d is dominated by an earlier kept candidate f with
// load(f) < load(d) — strictly, by the checked precondition — and
// q(f) ≥ q(d). Any merge pair (d, b) is then beaten by (f, b): same
// minimum-slack bound or better, strictly smaller combined load. So no
// pair involving a skipped candidate can survive the pruneVG that follows
// the merge, or tie a survivor (a strict-load dominator disqualifies a
// value from the frontier outright). Dropping them changes nothing.
//
// Across two frontiers — both strictly ascending in load and in slack —
// the walk starts at the head of each and repeatedly emits the current
// pair, then advances the pointer whose candidate has the smaller slack
// (both on a tie). Combined load strictly increases along the path, and
// any pair (i, j) off the path is again strictly beaten: the path visits
// every index of both lists, so it holds i with some j* < j (or j with
// i* < i); advancing past (i, j*) means qa(i) ≥ qb(j*) ≥ … so the
// emitted pair has the same min-slack as (i, j) at strictly smaller
// load, in the same (parity[, cost]) group. The emitted pairs therefore
// contain every pair value that can survive — or tie a survivor of — the
// subsequent prune.
//
// Delay runs (lishiMerge) insert buffers on the walk's pairs alone: with
// every buffer's R > 0 (Library.Validate enforces this) a strictly
// load-dominated pair also loses strictly after the b.Delay(load)
// charge, so the per-type maxima match the cross product's; exact-slack
// ties are settled by the insertion table's value-canonical acceptance
// rule.
//
// Noise runs (lishiNoiseMerge) cannot do that: a 2-D-dominated pair
// (larger load, smaller slack) can be the only pair whose noise slack
// admits some buffer type — the Section IV-C observation that motivates
// safe pruning. So insertion streams over every parity- and
// count-compatible pair, in mergeVG's a-major order, computing
// mergedCand's values without its solution link (pairValues). The
// node's list is the walk plus the insertion winners, merged into
// pruneVG's order and pruned in one pass (insertTable.mergePrune), so
// only survivors are ever built: prune(walk ∪ inserted) keeps exactly
// the values prune(cross ∪ inserted) keeps, by the argument above. The
// budget and the work counters see the cross product the classic merge
// would have built: CheckCandidates runs at the same 4,096-pair strides
// with the same counts, and merged, generated and pruned count it.
//
// Bit identity covers which solution link survives, too, and that is
// decided by the order pdqsort leaves equal candidates in — which
// depends on the whole input list. The fused list has a unique sorted
// order unless two of its candidates compare equal; in that case, and
// when a group's loads are not strictly ascending, the node falls back
// to the classic path (cross product, insertBuffers, pdqsort), counted
// in "vg.lishi.fallbacks". Both are rare: about one branch node in a
// thousand on Table I nets.
//
// Safe pruning keeps a 4-D frontier the 2-D walk would cut, so it always
// uses the classic merge. Every engine name is exact in every
// configuration; the enginetest differential suite is the gate on all of
// this.

// resolveEngine maps the public engine name to the concrete engine a run
// uses. EngineAuto chooses Li–Shi whenever the configuration can use the
// fast merge and the library has more than one type — with a single type
// the cross product is already the b = 1 case and the walk's bookkeeping
// buys nothing.
func resolveEngine(opts vgOptions, lib *buffers.Library) string {
	switch opts.engine {
	case EngineLiShi:
		return EngineLiShi
	case EngineAuto:
		if !opts.safePruning && len(lib.Buffers) > 1 {
			return EngineLiShi
		}
	}
	return EngineVG
}

// budgetStride is how many merge pairs pass between candidate-budget
// checks.
const budgetStride = 4096

// candGroup is one (parity[, cost]) run of a canonically ordered
// candidate list — the index range [start, end) — with the indices of
// its 2-D Pareto frontier in load order (load and slack both strictly
// increasing along frontier).
type candGroup struct {
	pol        uint8
	cost       int
	start, end int
	frontier   []int
}

// groupPair is one parity- and count-compatible pair of branch groups,
// indexes into insertTable.lg and .rg.
type groupPair struct{ l, r int }

// compatible reports whether the pairs of two branch groups merge at all:
// equal parity and, count-indexed, a combined cost within the cap.
func compatible(ga, gb *candGroup, opts vgOptions) bool {
	return ga.pol == gb.pol && (!opts.countIndexed || ga.cost+gb.cost <= opts.maxBuffers)
}

// lishiGroups splits a pruned (and possibly wire-charged) candidate list
// into its (parity[, cost]) groups, appended to groups, and computes each
// group's Pareto frontier by a prefix-max slack scan, its indices
// appended to idx. ok is false when some group's loads are not strictly
// ascending — the precondition of the walk's proof, which a parent-wire
// charge can break through rounding.
func lishiGroups(list []vgCand, opts vgOptions, groups []candGroup, idx []int) (_ []candGroup, _ []int, ok bool) {
	for i := 0; i < len(list); {
		start := len(idx)
		bestQ := list[i].q
		idx = append(idx, i)
		j := i + 1
		for ; j < len(list) && list[j].pol == list[i].pol &&
			(!opts.countIndexed || list[j].cost == list[i].cost); j++ {
			if !(list[j].load > list[j-1].load) {
				return groups, idx, false
			}
			if list[j].q > bestQ {
				bestQ = list[j].q
				idx = append(idx, j)
			}
		}
		groups = append(groups, candGroup{
			pol:      list[i].pol,
			cost:     list[i].cost,
			start:    i,
			end:      j,
			frontier: idx[start:len(idx):len(idx)],
		})
		i = j
	}
	return groups, idx, true
}

// branchGroups fills lg and rg with the groups of a branch node's two
// lists and reports whether both meet the walk's precondition.
func (t *insertTable) branchGroups(left, right []vgCand, opts vgOptions) bool {
	var okL, okR bool
	t.lg, t.idx, okL = lishiGroups(left, opts, t.lg[:0], t.idx[:0])
	t.rg, t.idx, okR = lishiGroups(right, opts, t.rg[:0], t.idx)
	return okL && okR
}

// lishiMerge combines two sibling candidate lists by walking Pareto
// frontiers pairwise instead of forming the full cross product. Same
// contract as mergeVG: parity-compatible pairs only, count-capped pairs
// skipped, output from the arena (caller releases on error), budget
// consulted as the output grows.
func lishiMerge(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	tab := opts.ins
	if !tab.branchGroups(left, right, opts) {
		opts.stats.fellBack()
		return mergeVG(left, right, opts)
	}
	out := opts.arena.get(len(left) + len(right))
	if err := tab.walkPairs(left, right, opts); err != nil {
		return out, err
	}
	for _, p := range tab.walk {
		out = append(out, mergedCand(left[p[0]], right[p[1]]))
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

// walkPairs lists in walk, as (left, right) indexes, the frontier walk's
// pairs of every compatible group pair, consulting the budget every
// budgetStride pairs with the count so far.
func (t *insertTable) walkPairs(left, right []vgCand, opts vgOptions) error {
	t.walk = t.walk[:0]
	tick := 0
	for gi := range t.lg {
		ga := &t.lg[gi]
		for gj := range t.rg {
			gb := &t.rg[gj]
			if !compatible(ga, gb, opts) {
				continue
			}
			i, j := 0, 0
			for i < len(ga.frontier) && j < len(gb.frontier) {
				if tick++; tick >= budgetStride {
					tick = 0
					if err := opts.budget.CheckCandidates(len(t.walk)); err != nil {
						return err
					}
				}
				a, b := ga.frontier[i], gb.frontier[j]
				t.walk = append(t.walk, [2]int32{int32(a), int32(b)})
				// Advance past the branch that bounds this pair's slack:
				// its later candidates can only raise the bound the other
				// branch's current candidate already meets.
				switch qa, qb := left[a].q, right[b].q; {
				case qa < qb:
					i++
				case qa > qb:
					j++
				default:
					i++
					j++
				}
			}
		}
	}
	return nil
}

// orderWalk computes the walk's pair values into wpeeks and sets worder
// to the permutation that sorts them into pruneVG's order — the
// identity, without a sort, whenever the walk is already in it.
func (t *insertTable) orderWalk(left, right []vgCand, countIndexed bool) {
	t.wpeeks, t.worder = t.wpeeks[:0], t.worder[:0]
	for i, p := range t.walk {
		t.wpeeks = append(t.wpeeks, pairValues(&left[p[0]], &right[p[1]]))
		t.worder = append(t.worder, int32(i))
	}
	order := func(x, y int32) int { return pruneCmp(&t.wpeeks[x], &t.wpeeks[y], countIndexed) }
	if !slices.IsSortedFunc(t.worder, order) {
		slices.SortFunc(t.worder, order)
	}
}

// lishiNoiseMerge is the Li–Shi branch step of a noise run: the merge
// (Steps 3–4 of Fig. 11), buffer insertion at v when insert is set
// (Step 5) and the prune (Step 7), without materializing the cross
// product. Insertion streams over every merge pair; the node's list is
// the frontier walk merged with the insertion winners and pruned in one
// pass, and only survivors are built. Where the merged order is not
// certain, or a branch group's loads are not strictly ascending, the
// node runs the classic path instead (see the file comment) and leaves
// the prune to pruneVG; pruned reports which happened. Either way the
// result is bit-identical to mergeVG, insertBuffers and pruneVG, and so
// are the budget's checks and the work counters. Output from the arena;
// the caller releases it on error.
func lishiNoiseMerge(v rctree.NodeID, left, right []vgCand, lib *buffers.Library, opts vgOptions, insert bool) (_ []vgCand, pruned bool, _ error) {
	tab := opts.ins
	if !tab.branchGroups(left, right, opts) {
		list, err := classicBranch(v, left, right, lib, opts, insert)
		return list, false, err
	}
	out := opts.arena.get(len(left) + len(right))
	pairs, err := tab.streamPairs(left, right, lib, opts, insert)
	if err != nil {
		tab.clearSlots()
		return out, false, err
	}
	// The budget has seen the cross product; neither the walk nor a
	// fallback may check it again.
	unchecked := opts
	unchecked.budget = nil
	tab.walkPairs(left, right, unchecked)
	tab.orderWalk(left, right, opts.countIndexed)
	tab.rank(lib, true, opts.countIndexed)
	out, ok := tab.mergePrune(out, left, right, v, lib, opts)
	if !ok {
		opts.arena.put(out)
		tab.clearSlots()
		list, err := classicBranch(v, left, right, lib, unchecked, insert)
		return list, false, err
	}
	if st := opts.stats; st != nil {
		st.merged += pairs
		st.generated += pairs + int64(len(tab.touched))
		st.pruned += pairs + int64(len(tab.touched)-len(out))
	}
	tab.clearSlots()
	return out, true, nil
}

// classicBranch is a noise run's fallback at one branch node: mergeVG's
// cross product, then insertBuffers; pruneVG sorts the result as it
// always did.
func classicBranch(v rctree.NodeID, left, right []vgCand, lib *buffers.Library, opts vgOptions, insert bool) ([]vgCand, error) {
	opts.stats.fellBack()
	list, err := mergeVG(left, right, opts)
	if err != nil || !insert {
		return list, err
	}
	return insertBuffers(v, list, lib, opts), nil
}

// streamPairs is the budget ledger and, when insert is set, the Step 5
// scan of a branch node's virtual cross product, over the groups
// branchGroups found. Pairs come in mergeVG's a-major order, so the
// insertion table's first-scanned tie rule picks the pairs the
// materialized list would have; the CheckCandidates calls fall on the
// same pairs with the same counts. It returns the number of pairs the
// cross product holds; the winners are left in the table.
func (t *insertTable) streamPairs(left, right []vgCand, lib *buffers.Library, opts vgOptions, insert bool) (int64, error) {
	t.pairs = t.pairs[:0]
	for gi := range t.lg {
		for gj := range t.rg {
			if compatible(&t.lg[gi], &t.rg[gj], opts) {
				t.pairs = append(t.pairs, groupPair{gi, gj})
			}
		}
	}
	if insert {
		// Every source in one group pair costs the same, so the cost
		// axis indexes group pairs.
		t.costAxis(len(t.pairs), func(p int) int {
			return t.lg[t.pairs[p].l].cost + t.rg[t.pairs[p].r].cost
		}, opts.countIndexed, len(lib.Buffers))
	}
	// done counts the pairs of the rows before the current one, count the
	// compatible ones among them; next is the 1-based position of the
	// pair at which mergeVG's next budget check falls.
	n := len(right)
	next, done, count := budgetStride, 0, 0
	p := 0
	for gi := range t.lg {
		ga := &t.lg[gi]
		first, row := p, 0
		for ; p < len(t.pairs) && t.pairs[p].l == gi; p++ {
			row += t.rg[t.pairs[p].r].end - t.rg[t.pairs[p].r].start
		}
		for i := ga.start; i < ga.end; i++ {
			for ; next <= done+n; next += budgetStride {
				if err := opts.budget.CheckCandidates(count + t.pairsBefore(first, p, next-1-done)); err != nil {
					return 0, err
				}
			}
			if insert {
				for q := first; q < p; q++ {
					t.streamRow(i, q, left, right, lib, opts)
				}
			}
			done += n
			count += row
		}
	}
	if err := opts.budget.CheckCandidates(count); err != nil {
		return 0, err
	}
	return int64(count), nil
}

// pairsBefore counts the compatible right-list indices below column c in
// a left row whose compatible group pairs are pairs[first:last].
func (t *insertTable) pairsBefore(first, last, c int) int {
	k := 0
	for _, gp := range t.pairs[first:last] {
		g := &t.rg[gp.r]
		k += max(0, min(c, g.end)-g.start)
	}
	return k
}

// streamRow offers left[i] merged with each candidate of group pair q's
// right group to every buffer type — insertBuffers' scan, on pair values
// computed as mergedCand computes them (pairValues).
func (t *insertTable) streamRow(i, q int, left, right []vgCand, lib *buffers.Library, opts vgOptions) {
	x := &left[i]
	g := &t.rg[t.pairs[q].r]
	cidx := int(t.costIdx[q])
	for j := g.start; j < g.end; j++ {
		c := pairValues(x, &right[j])
		for bi := range lib.Buffers {
			b := &lib.Buffers[bi]
			if opts.noise && b.R*c.down > c.ns {
				continue
			}
			if opts.countIndexed && c.cost+b.Cost() > opts.maxBuffers {
				continue
			}
			pol := int(c.pol)
			if b.Inverting {
				pol ^= 1
			}
			t.offer((2*bi+pol)*t.span+cidx, c.q-b.Delay(c.load), c.cost, c.nbuf, int32(i+1), int32(j))
		}
	}
}

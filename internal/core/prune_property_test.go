package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// Property tests on the DP's list invariants. The Li–Shi merge is only
// sound because pruneVG's output is, per (parity[, cost]) group, a strict
// 2-D Pareto frontier: loads strictly ascending, slacks strictly
// ascending, no candidate weakly dominated by another. These tests pin
// that invariant — and the fast merge's equivalence to the cross product
// — on 1 000 seeded random subtree lists per configuration, deliberately
// including exact float ties (values drawn from a small grid) so the
// tie-breaking rules are exercised, not just generic positions.

// witnessLib names the buffer indexes randCandList's links use: one per
// list tag, so a merged solution shows which side each link came from.
var witnessLib = &buffers.Library{Buffers: []buffers.Buffer{{Name: "c"}, {Name: "l"}, {Name: "r"}}}

// randCandList builds a raw candidate list as a subtree might hand it to
// a parent: random values on a coarse grid (ties likely), each with a
// distinct solution link written by w — its own node, and the tag's
// witnessLib buffer — so witness mix-ups are visible.
func randCandList(rng *rand.Rand, n int, tag string, w *slabWriter) []vgCand {
	list := make([]vgCand, n)
	for i := range list {
		list[i] = vgCand{
			load: float64(1+rng.Intn(40)) * 0.25,
			q:    float64(rng.Intn(60)) * 0.5,
			down: float64(rng.Intn(8)) * 0.125,
			ns:   float64(rng.Intn(20)) * 0.5,
			nbuf: rng.Intn(6),
			cost: rng.Intn(6),
			pol:  uint8(rng.Intn(2)),
			sol: w.add(solLink{
				node: rctree.NodeID(i),
				buf:  int32(slices.IndexFunc(witnessLib.Buffers, func(b buffers.Buffer) bool { return b.Name == tag })),
			}),
		}
	}
	return list
}

// pruneProfiles are the dominance configurations under test.
func pruneProfiles() []struct {
	name string
	opts vgOptions
} {
	return []struct {
		name string
		opts vgOptions
	}{
		{"plain", vgOptions{}},
		{"count-indexed", vgOptions{countIndexed: true, maxBuffers: 8}},
		{"safe", vgOptions{safePruning: true}},
		{"safe-count-indexed", vgOptions{safePruning: true, countIndexed: true, maxBuffers: 8}},
	}
}

// checkFrontier asserts the pruned-list invariant for one list: within
// each (parity[, cost]) group, strictly ascending load; without safe
// pruning also strictly ascending slack (the strict 2-D frontier); and in
// every mode, no candidate weakly dominated by another in its group under
// the mode's dominance relation.
func checkFrontier(t *testing.T, list []vgCand, opts vgOptions) {
	t.Helper()
	sameGroup := func(a, b *vgCand) bool {
		return a.pol == b.pol && (!opts.countIndexed || a.cost == b.cost)
	}
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameGroup(&list[i], &list[j]) {
			j++
		}
		for k := i + 1; k < j; k++ {
			a, b := &list[k-1], &list[k]
			if b.load < a.load {
				t.Fatalf("group load not ascending at %d: %g after %g", k, b.load, a.load)
			}
			// The 2-D modes leave a strict staircase; safe pruning may
			// keep equal-load candidates that differ in the noise
			// dimensions, so only the weaker ordering holds there.
			if !opts.safePruning && (b.load <= a.load || b.q <= a.q) {
				t.Fatalf("group frontier not strict at %d: (%g, %g) after (%g, %g)",
					k, b.load, b.q, a.load, a.q)
			}
		}
		for x := i; x < j; x++ {
			for y := i; y < j; y++ {
				if x == y {
					continue
				}
				a, b := &list[x], &list[y]
				dom := a.load <= b.load && a.q >= b.q
				if opts.safePruning {
					dom = dom && a.down <= b.down && a.ns >= b.ns
				}
				if dom {
					t.Fatalf("candidate %d weakly dominated by %d: %+v vs %+v", y, x, *b, *a)
				}
			}
		}
		i = j
	}
}

// TestPrunedListsAreStrictFrontiers drives pruneVG over 1 000 seeded
// random lists per profile and asserts the frontier invariant, plus
// idempotence (pruning a pruned list changes nothing) and, for the
// non-safe modes, that lishiGroups sees the whole pruned group as its own
// frontier — the precondition the fast merge's index views rely on.
func TestPrunedListsAreStrictFrontiers(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	for _, prof := range pruneProfiles() {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1234))
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				opts.arena = &candArena{}
				slab, w := testWriter()
				raw := randCandList(rng, 1+rng.Intn(120), "c", w)
				pruned, err := pruneVG(raw, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkFrontier(t, pruned, opts)
				again, err := pruneVG(append([]vgCand(nil), pruned...), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := candsEqual(witnessLib, slab, pruned, slab, again); err != nil {
					t.Fatalf("trial %d: pruning not idempotent: %v", trial, err)
				}
				if !opts.safePruning {
					groups, _, ok := lishiGroups(pruned, opts, nil, nil)
					if !ok {
						t.Fatalf("trial %d: pruned list has a group whose loads do not strictly ascend", trial)
					}
					total := 0
					for _, g := range groups {
						total += len(g.frontier)
					}
					if total != len(pruned) {
						t.Fatalf("trial %d: pruned list is not its own frontier: %d of %d indices kept",
							trial, total, len(pruned))
					}
				}
			}
		})
	}
}

// TestMergeDifferentialProperty is the unit-level differential on the
// merge itself: for 1 000 seeded pairs of pruned, wire-charged lists —
// the exact shape computeNode feeds a branch merge — prune(cross product)
// and prune(frontier walk) must agree bit for bit, solutions included.
// The wire charge is applied because it breaks slack monotonicity while
// preserving load order, which is precisely the case the fast merge's
// frontier index views exist for. The walk must also emit no more
// candidates than the cross product, and strictly fewer at least once —
// proof the fast path is engaged, not falling back.
func TestMergeDifferentialProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	for _, prof := range []struct {
		name string
		opts vgOptions
	}{
		{"plain", vgOptions{}},
		{"count-indexed", vgOptions{countIndexed: true, maxBuffers: 8}},
	} {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(5678))
			savedEmits := false
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				opts.arena = &candArena{}
				opts.ins = &insertTable{}
				var slab *solSlab
				slab, opts.sol = testWriter()
				mk := func(tag string) []vgCand {
					l, err := pruneVG(randCandList(rng, 1+rng.Intn(80), tag, opts.sol), opts)
					if err != nil {
						t.Fatal(err)
					}
					// Charge a random parent wire: loads shift by a
					// constant, slacks drop by R·load — order kept,
					// monotonicity broken.
					r, c := rng.Float64(), rng.Float64()
					for i := range l {
						l[i].q -= r * (c/2 + l[i].load)
						l[i].load += c
					}
					return l
				}
				left, right := mk("l"), mk("r")
				cross, err := mergeVG(left, right, opts)
				if err != nil {
					t.Fatal(err)
				}
				walk, err := lishiMerge(left, right, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(walk) > len(cross) {
					t.Fatalf("trial %d: walk emitted %d > cross product %d", trial, len(walk), len(cross))
				}
				if len(walk) < len(cross) {
					savedEmits = true
				}
				pc, err := pruneVG(cross, opts)
				if err != nil {
					t.Fatal(err)
				}
				pw, err := pruneVG(walk, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := candsEqual(witnessLib, slab, pc, slab, pw); err != nil {
					t.Fatalf("trial %d: merge paths disagree after pruning: %v", trial, err)
				}
			}
			if !savedEmits {
				t.Fatal("the frontier walk never beat the cross product; the fast path is not engaged")
			}
		})
	}
}

// refPrune is pruneVG as it ran before it learned to skip sorts: pdqsort
// with the old comparator on every list, then the dominance scan. The
// sort-elision and run-merge properties below are stated against it.
func refPrune(list []vgCand, opts vgOptions) []vgCand {
	list = slices.Clone(list)
	slices.SortFunc(list, func(a, b vgCand) int {
		if opts.countIndexed && a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		return pruneOrder(&a, &b)
	})
	var out []vgCand
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && list[j].pol == list[i].pol && (!opts.countIndexed || list[j].cost == list[i].cost) {
			j++
		}
		group := len(out)
		bestQ := math.Inf(-1)
		for _, c := range list[i:j] {
			kept := c.q > bestQ
			if opts.safePruning {
				kept = true
				for _, g := range out[group:] {
					if g.load <= c.load && g.q >= c.q && g.down <= c.down && g.ns >= c.ns {
						kept = false
						break
					}
				}
			}
			if kept {
				out = append(out, c)
				bestQ = math.Max(bestQ, c.q)
			}
		}
		i = j
	}
	return out
}

// sameCand reports whether two candidates are identical: the same
// solution link and the same bits in every field.
func sameCand(a, b *vgCand) bool {
	return a.sol == b.sol && a.nbuf == b.nbuf && a.cost == b.cost && a.pol == b.pol &&
		math.Float64bits(a.load) == math.Float64bits(b.load) &&
		math.Float64bits(a.q) == math.Float64bits(b.q) &&
		math.Float64bits(a.down) == math.Float64bits(b.down) &&
		math.Float64bits(a.ns) == math.Float64bits(b.ns)
}

// sameElements asserts two lists hold the same candidates in the same
// order, bit for bit and solution pointer by solution pointer.
func sameElements(got, want []vgCand) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameCand(&got[i], &want[i]) {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// orderedList builds the shape sort elision meets: a pruned list (in
// prune order) that is sometimes wire-charged — which can round two
// loads together — and sometimes carries duplicates, either the same
// candidate repeated, or an equal value under a fresh link — equal
// neighbours either way, which pruneVG must leave to the sort. Links are
// written by opts.sol.
func orderedList(rng *rand.Rand, opts vgOptions) []vgCand {
	l, _ := pruneVG(randCandList(rng, 1+rng.Intn(80), "c", opts.sol), opts)
	if rng.Intn(2) == 0 {
		c := float64(rng.Intn(4)) * 0.25
		for i := range l {
			l[i].load += c
		}
	}
	for d := rng.Intn(3); d > 0 && len(l) > 0; d-- {
		i := rng.Intn(len(l))
		dup := l[i]
		if rng.Intn(2) == 0 {
			dup.sol = opts.sol.add(solLink{node: rctree.NodeID(1000 + d)})
		}
		l = slices.Insert(l, i+1, dup)
	}
	return l
}

// TestSortElisionProperty: pruneVG, which skips its sort when the order
// is certain, returns exactly what the always-sorting reference returns
// — on in-order lists, in-order lists with duplicates, and lists with a
// random block appended.
func TestSortElisionProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	for _, prof := range pruneProfiles() {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(9012))
			elided := 0
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				_, opts.sol = testWriter()
				list := orderedList(rng, opts)
				if rng.Intn(3) == 0 {
					list = append(list, randCandList(rng, 1+rng.Intn(10), "l", opts.sol)...)
				}
				if certainOrder(list, opts.countIndexed) {
					elided++
				}
				want := refPrune(list, opts)
				got, err := pruneVG(slices.Clone(list), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameElements(got, want); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			if elided == 0 || elided == trials {
				t.Fatalf("sort elided on %d of %d lists; both paths must be exercised", elided, trials)
			}
		})
	}
}

// sameLinked is sameElements' comparison for lists whose winners were
// built twice: values bit for bit, and the solution link either the same
// ref or a fresh link in slab with the same fields — node, buffer, and
// the same predecessor refs.
func sameLinked(slab *solSlab, got, want []vgCand) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.sol != b.sol && a.sol != 0 && b.sol != 0 && *slab.link(a.sol) == *slab.link(b.sol) {
			a.sol = b.sol
		}
		if !sameCand(&a, &b) {
			return fmt.Errorf("candidate %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// insertLibs are the libraries the chain-node property runs over: plain
// distinct types (the merge path), a duplicated type whose winners tie
// (back to the sort), and unequal weights (winners out of table order).
func insertLibs() []*buffers.Library {
	plain := []buffers.Buffer{
		{Name: "B", Cin: 0.5, R: 1, T: 0.4, NoiseMargin: 6},
		{Name: "b", Cin: 0.25, R: 2.2, T: 0.25, NoiseMargin: 5},
		{Name: "I", Cin: 0.75, R: 1.6, T: 0.2, NoiseMargin: 5, Inverting: true},
	}
	weighted := slices.Clone(plain)
	weighted[0].Weight, weighted[2].Weight = 3, 2
	return []*buffers.Library{
		{Buffers: plain},
		{Buffers: append(slices.Clone(plain), buffers.Buffer{Name: "B2", Cin: 0.5, R: 1, T: 0.4, NoiseMargin: 6})},
		{Buffers: weighted},
	}
}

// TestRunMergeProperty: at a chain node, insertPrune — the winners merged
// into the child's list and pruned in one pass — returns exactly what the
// classic step returns: insertBuffers' block appended, then pdqsort with
// the old comparator and the scan. Runs come from orderedList, so some
// hold rounded-together loads or equal values under different links,
// which must send the node back to the sort. Safe pruning always takes
// the sort.
func TestRunMergeProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	for _, prof := range pruneProfiles() {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(3456))
			libs := insertLibs()
			merged, fellBack := 0, 0
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				opts.arena = &candArena{}
				opts.ins = &insertTable{}
				var slab *solSlab
				slab, opts.sol = testWriter()
				opts.noise = rng.Intn(2) == 0
				lib := libs[trial%len(libs)]
				run := orderedList(rng, opts)
				want := refPrune(insertBuffers(5, slices.Clone(run), lib, opts), opts)

				in := append(opts.arena.get(len(run)), run...)
				got, pruned := insertPrune(5, in, lib, opts)
				switch {
				case pruned:
					merged++
				case len(got) > len(run) && !opts.safePruning:
					fellBack++
				}
				if !pruned {
					var err error
					if got, err = pruneVG(got, opts); err != nil {
						t.Fatal(err)
					}
				}
				if err := sameLinked(slab, got, want); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			if !prof.opts.safePruning && (merged == 0 || fellBack == 0) {
				t.Fatalf("%d merged, %d fell back; both paths must be exercised", merged, fellBack)
			}
		})
	}
}

// TestWalkPreconditionRounding: a parent-wire charge can round two
// distinct in-group loads onto one (a < b but a + C == b + C), which
// voids the frontier walk's strict-load argument. lishiGroups must
// reject such a list, and both Li–Shi merges must then return exactly
// the classic cross-product result, counting one fallback each.
func TestWalkPreconditionRounding(t *testing.T) {
	a := 1.0
	b := math.Nextafter(a, 2)
	const c = 1.0
	if !(a < b) || a+c != b+c {
		t.Fatalf("setup: %g + %g and %g + %g must round together", a, c, b, c)
	}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
		{Name: "b", Cin: 0.02, R: 2.2, T: 0.25, NoiseMargin: 5},
	}}
	// left holds the rounded pair, now equal loads; the slacks make the
	// second one the better pair partner, which the walk would skip.
	slab, w := testWriter()
	left := []vgCand{
		{load: a + c, q: 3, down: 0.5, ns: 4, sol: w.add(solLink{node: 1})},
		{load: b + c, q: 3, down: 0.1, ns: 4, sol: w.add(solLink{node: 2})},
	}
	right := []vgCand{
		{load: 0.5, q: 2, down: 0.2, ns: 5, sol: w.add(solLink{node: 3})},
		{load: 0.7, q: 5, down: 0.3, ns: 6, sol: w.add(solLink{node: 4})},
	}
	opts := vgOptions{noise: true, arena: &candArena{}, ins: &insertTable{}, sol: w}
	if _, _, ok := lishiGroups(left, opts, nil, nil); ok {
		t.Fatal("lishiGroups accepted a group whose loads do not strictly ascend")
	}

	var st vgStats
	opts.stats = &st
	want, err := mergeVG(left, right, vgOptions{arena: opts.arena, sol: w})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lishiMerge(left, right, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := candsEqual(witnessLib, slab, got, slab, want); err != nil {
		t.Fatalf("lishiMerge: %v", err)
	}
	if st.fallbacks != 1 {
		t.Fatalf("lishiMerge counted %d fallbacks, want 1", st.fallbacks)
	}

	want = insertBuffers(7, want, lib, vgOptions{noise: true, ins: &insertTable{}, sol: w})
	got, _, err = lishiNoiseMerge(7, left, right, lib, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = pruneVG(got, opts); err != nil {
		t.Fatal(err)
	}
	if want, err = pruneVG(want, opts); err != nil {
		t.Fatal(err)
	}
	if err := candsEqual(lib, slab, got, slab, want); err != nil {
		t.Fatalf("lishiNoiseMerge: %v", err)
	}
	if st.fallbacks != 2 {
		t.Fatalf("lishiNoiseMerge counted %d fallbacks in all, want 2", st.fallbacks)
	}
}

// frontierList builds an n-candidate list that pruning keeps whole:
// loads and slacks rise together, parity and cost are random, so every
// (parity[, cost]) group is its own strict frontier and the branch merge
// meets long groups and incompatible pairs. Links are written by
// opts.sol.
func frontierList(rng *rand.Rand, n int, opts vgOptions, tag int32) []vgCand {
	list := make([]vgCand, n)
	for i := range list {
		list[i] = vgCand{
			load: 0.1 + 0.01*float64(i),
			q:    float64(i),
			down: float64(rng.Intn(8)) * 0.125,
			ns:   float64(rng.Intn(20)) * 0.5,
			nbuf: rng.Intn(3),
			cost: rng.Intn(3),
			pol:  uint8(rng.Intn(2)),
			sol:  opts.sol.add(solLink{node: rctree.NodeID(i), buf: tag}),
		}
	}
	list, _ = pruneVG(list, opts)
	if len(list) != n {
		panic("frontierList: pruning dropped candidates")
	}
	return list
}

// TestStreamedBudgetLedger: lishiNoiseMerge never builds the cross
// product, yet it must consult the candidate budget on mergeVG's pairs
// with mergeVG's counts. Raising the cap to each count mergeVG trips at
// walks the whole sequence of checked counts; at every cap both merges
// must fail with the same error, or both succeed with the same usage
// peak. Right lists of 64 and 128 candidates put a stride boundary on a
// row's last pair.
func TestStreamedBudgetLedger(t *testing.T) {
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
		{Name: "I", Cin: 0.03, R: 1.6, T: 0.2, NoiseMargin: 5, Inverting: true},
	}}
	rng := rand.New(rand.NewSource(7890))
	sizes := []int{1, 63, 64, 65, 128, 150}
	for trial := 0; trial < 60; trial++ {
		_, w := testWriter()
		opts := vgOptions{noise: true, arena: &candArena{}, ins: &insertTable{}, sol: w}
		if trial%2 == 1 {
			opts.countIndexed, opts.maxBuffers = true, 4
		}
		left := frontierList(rng, sizes[rng.Intn(len(sizes))]+rng.Intn(2)*rng.Intn(60), opts, 1)
		right := frontierList(rng, sizes[rng.Intn(len(sizes))], opts, 2)
		steps := 0
		for maxCands := 1; ; steps++ {
			run := func(merge func(o vgOptions) ([]vgCand, error)) (string, guard.Usage) {
				b := guard.New(context.Background())
				b.MaxCandidates = maxCands
				o := opts
				o.budget = b
				out, err := merge(o)
				opts.arena.put(out)
				if err != nil {
					return err.Error(), b.Usage()
				}
				return "", b.Usage()
			}
			want, wantUse := run(func(o vgOptions) ([]vgCand, error) { return mergeVG(left, right, o) })
			got, gotUse := run(func(o vgOptions) ([]vgCand, error) {
				out, _, err := lishiNoiseMerge(9, left, right, lib, o, true)
				return out, err
			})
			if got != want || gotUse != wantUse {
				t.Fatalf("trial %d (%d×%d pairs), cap %d: lishi %q %+v, vg %q %+v",
					trial, len(left), len(right), maxCands, got, gotUse, want, wantUse)
			}
			if want == "" {
				break
			}
			maxCands = wantUse.Candidates
		}
		if len(left)*len(right) > 2*budgetStride && steps < 2 {
			t.Fatalf("trial %d: %d pairs tripped the budget only %d times", trial, len(left)*len(right), steps)
		}
	}
}

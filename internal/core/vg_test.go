package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// lib3 is a two-buffer non-inverting library for the DP tests.
func lib3() *buffers.Library {
	return &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B1", Cin: 0.2, R: 1, T: 0.5, NoiseMargin: 4},
		{Name: "B2", Cin: 0.5, R: 0.5, T: 0.7, NoiseMargin: 4},
	}}
}

// bound returns a pointer to k, for Problem.MaxBuffers literals.
func bound(k int) *int { return &k }

// noisySegmentedY returns the hand-built noisy Y tree segmented into
// buffer sites.
func noisySegmentedY(t *testing.T, pieces int) *rctree.Tree {
	t.Helper()
	tr := buildNoisyY(t)
	if _, err := segment.ByCount(tr, pieces); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuffOptProducesCleanOptimalTree(t *testing.T) {
	tr := noisySegmentedY(t, 3)
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The DP's slack must agree with the independent Elmore analyzer.
	an := elmore.Analyze(res.Tree, res.Buffers)
	if !approx(res.Slack, an.WorstSlack) {
		t.Errorf("DP slack %v, analyzer %v", res.Slack, an.WorstSlack)
	}
	if r := noise.Analyze(res.Tree, res.Buffers, unitParams); !r.Clean() {
		t.Errorf("BuffOpt solution not noise clean: %+v", r.Violations)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Errorf("solution tree invalid: %v", err)
	}
}

func TestBuffOptMatchesExhaustiveSingleBuffer(t *testing.T) {
	// Theorem 5 conditions: single buffer type. (Two pieces per wire leave
	// no noise-feasible assignment at all, so use three.)
	tr := noisySegmentedY(t, 3)
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.5, NoiseMargin: 4},
	}}
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok, err := ExhaustiveMaxSlackNoise(tr, lib, unitParams, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("exhaustive found no feasible assignment")
	}
	if !approx(res.Slack, want) {
		t.Errorf("BuffOpt slack %v, exhaustive optimum %v", res.Slack, want)
	}
}

func TestBuffOptSafePruningMatchesExhaustiveMultiBuffer(t *testing.T) {
	tr := noisySegmentedY(t, 2)
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Params: unitParams, Objective: MaxSlackNoise,
	}, Options{SafePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok, err := ExhaustiveMaxSlackNoise(tr, lib3(), unitParams, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("exhaustive found no feasible assignment")
	}
	if !approx(res.Slack, want) {
		t.Errorf("BuffOpt slack %v, exhaustive optimum %v", res.Slack, want)
	}
	// Paper pruning should be within a hair on this instance too (the
	// paper reports < 2% from optimal); require it not to crash and to
	// stay clean.
	paper, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Slack > want+1e-9 {
		t.Errorf("paper-pruned slack %v exceeds exhaustive optimum %v", paper.Slack, want)
	}
}

func TestDelayOptMatchesExhaustive(t *testing.T) {
	tr := noisySegmentedY(t, 2)
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack,
	}, Options{SafePruning: false})
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok, err := ExhaustiveMaxSlackNoise(tr, lib3(), unitParams, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("exhaustive found nothing")
	}
	if !approx(res.Slack, want) {
		t.Errorf("DelayOpt slack %v, exhaustive optimum %v", res.Slack, want)
	}
	an := elmore.Analyze(res.Tree, res.Buffers)
	if !approx(res.Slack, an.WorstSlack) {
		t.Errorf("DP slack %v, analyzer %v", res.Slack, an.WorstSlack)
	}
}

func TestDelayOptKMonotone(t *testing.T) {
	tr := noisySegmentedY(t, 3)
	prev := math.Inf(-1)
	for k := 0; k <= 5; k++ {
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib3(), Objective: MaxSlack, MaxBuffers: &k,
		}, Options{})
		if err != nil {
			t.Fatalf("DelayOptK(%d): %v", k, err)
		}
		if res.NumBuffers() > k {
			t.Errorf("DelayOptK(%d) used %d buffers", k, res.NumBuffers())
		}
		if res.Slack < prev-1e-9 {
			t.Errorf("slack decreased from %v to %v at k=%d", prev, res.Slack, k)
		}
		prev = res.Slack
	}
	// Unlimited DelayOpt must match a large k.
	unl, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack, MaxBuffers: bound(50),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(unl.Slack, big.Slack) {
		t.Errorf("DelayOpt %v != DelayOptK(50) %v", unl.Slack, big.Slack)
	}
	// k = 0 must equal the unbuffered tree's slack.
	k0, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack, MaxBuffers: bound(0),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := elmore.Analyze(tr, nil).WorstSlack; !approx(k0.Slack, got) {
		t.Errorf("DelayOptK(0) slack %v, unbuffered %v", k0.Slack, got)
	}
}

func TestBuffOptMinBuffersPicksFewest(t *testing.T) {
	// Make timing easy (huge RATs) so the fewest noise-clean count wins.
	tr := buildNoisyY(t)
	for _, s := range tr.Sinks() {
		tr.Node(s).RAT = 1e9
	}
	if _, err := segment.ByCount(tr, 3); err != nil {
		t.Fatal(err)
	}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.5, NoiseMargin: 4},
	}}
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MinBuffersNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := noise.Analyze(res.Tree, res.Buffers, unitParams); !r.Clean() {
		t.Fatalf("not clean: %+v", r.Violations)
	}
	if res.Slack < 0 {
		t.Fatalf("timing violated with RAT=1e9: slack %v", res.Slack)
	}
	best, _, ok, err := ExhaustiveMinBuffersNoise(tr, lib, unitParams)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("exhaustive found no clean assignment")
	}
	if res.NumBuffers() != best {
		t.Errorf("MinBuffersNoise used %d, optimum %d", res.NumBuffers(), best)
	}
}

func TestBuffOptUnfixableNoise(t *testing.T) {
	// A buffer whose margin is zero can never protect a noisy line.
	tr := noisySegmentedY(t, 2)
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "Z", Cin: 0.05, R: 1, T: 0.5, NoiseMargin: 0},
	}}
	_, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if !errors.Is(err, ErrNoiseUnfixable) {
		t.Errorf("err = %v, want ErrNoiseUnfixable", err)
	}
}

func TestTheorem2DelayOptLeavesViolations(t *testing.T) {
	// Theorem 2: a delay-optimal buffering can still violate noise. A very
	// strong, fast driver on a medium line: adding any buffer only hurts
	// delay (buffer intrinsic delay dominates), so DelayOpt inserts none —
	// but the line has a noise violation that BuffOpt must fix.
	tr := rctree.New("thm2", 0.05, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 3, C: 3, Length: 3}, "s", 0.1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := segment.ByCount(tr, 4); err != nil {
		t.Fatal(err)
	}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "slow", Cin: 0.2, R: 1, T: 50, NoiseMargin: 4},
	}}

	dres, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Objective: MaxSlack,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dres.NumBuffers() != 0 {
		t.Fatalf("DelayOpt inserted %d buffers; the construction needs 0", dres.NumBuffers())
	}
	if noise.Analyze(dres.Tree, dres.Buffers, unitParams).Clean() {
		t.Fatalf("construction failed: unbuffered line is noise clean")
	}

	bres, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bres.NumBuffers() == 0 {
		t.Errorf("BuffOpt inserted no buffers")
	}
	if r := noise.Analyze(bres.Tree, bres.Buffers, unitParams); !r.Clean() {
		t.Errorf("BuffOpt solution not clean: %+v", r.Violations)
	}
	if bres.Slack > dres.Slack+1e-9 {
		t.Errorf("noise-constrained slack %v exceeds unconstrained %v", bres.Slack, dres.Slack)
	}
}

func TestInvertingBuffersRespectPolarity(t *testing.T) {
	// An inverter-only library must use an even number of stages on every
	// source-to-sink path.
	tr := noisySegmentedY(t, 4)
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "INV", Cin: 0.05, R: 1, T: 0.3, NoiseMargin: 4, Inverting: true},
	}}
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := noise.Analyze(res.Tree, res.Buffers, unitParams); !r.Clean() {
		t.Fatalf("not clean: %+v", r.Violations)
	}
	if !polarityOK(res.Tree, res.Buffers) {
		t.Errorf("solution inverts some sink")
	}
	if res.NumBuffers()%2 != 0 && res.Tree.NumSinks() == 1 {
		t.Errorf("odd inverter count on a two-pin net")
	}
}

func TestBuffOptKRespectsBound(t *testing.T) {
	tr := noisySegmentedY(t, 3)
	lib := lib3()
	full, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise, MaxBuffers: bound(full.NumBuffers()),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuffers() > full.NumBuffers() {
		t.Errorf("BuffOptK(%d) used %d buffers", full.NumBuffers(), res.NumBuffers())
	}
	if res.Slack < full.Slack-1e-9 {
		t.Errorf("BuffOptK at the optimum's count got slack %v < %v", res.Slack, full.Slack)
	}
	// Too-tight bounds can make noise unfixable.
	if _, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise, MaxBuffers: bound(0),
	}, Options{}); err == nil {
		t.Errorf("BuffOptK(0) succeeded on a net that needs buffers")
	}
}

// TestZeroCapAdmitsNoBuffer: a count-indexed run capped at 0 is bounded,
// not unlimited — no candidate anywhere carries a buffer, so each list
// holds at most one candidate per parity and DelayOpt(0) is the
// unbuffered tree.
func TestZeroCapAdmitsNoBuffer(t *testing.T) {
	nets, lib, _ := diffCorpus(t, 8)
	for i, tr := range nets {
		cands, err := runVG(tr, lib, vgOptions{countIndexed: true, maxBuffers: 0, slab: &solSlab{}})
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		for _, c := range cands {
			if c.cost != 0 || c.nbuf != 0 || c.sol != 0 {
				t.Fatalf("net %d: cap 0 kept a buffered candidate (cost %d, nbuf %d)", i, c.cost, c.nbuf)
			}
		}
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Objective: MaxSlack, MaxBuffers: bound(0),
		}, Options{})
		if err != nil {
			t.Fatalf("net %d: DelayOpt(0): %v", i, err)
		}
		if res.NumBuffers() != 0 {
			t.Fatalf("net %d: DelayOpt(0) placed %d buffers", i, res.NumBuffers())
		}
	}
}

func TestRunVGRejectsBadInput(t *testing.T) {
	tr := rctree.New("star", 1, 0)
	for i := 0; i < 3; i++ {
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 1, C: 1, Length: 1}, "s", 0.1, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Params: unitParams, Objective: MaxSlackNoise,
	}, Options{}); err == nil {
		t.Errorf("ternary tree accepted")
	}
	if _, err := Optimize(context.Background(), Problem{
		Tree: noisySegmentedY(t, 2), Library: lib3(), Objective: MaxSlack, MaxBuffers: bound(-1),
	}, Options{}); err == nil {
		t.Errorf("negative k accepted")
	}
	if _, err := Optimize(context.Background(), Problem{Tree: noisySegmentedY(t, 2), Library: &buffers.Library{}, Objective: MaxSlack}, Options{}); err == nil {
		t.Errorf("empty library accepted")
	}
}

package core

import (
	"fmt"
	"math"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// Options tunes the Algorithm 3 family. The zero value reproduces the
// paper's configuration.
type Options struct {
	// SafePruning keeps noise slack and current in the dominance test,
	// guaranteeing exactness for multi-buffer libraries (Section IV-C
	// explains why the paper's pruning is only exact for a single buffer
	// type). Slower; off by default, as in the paper.
	SafePruning bool
	// Sizing enables simultaneous wire sizing (the Lillis [18] extension
	// the paper builds on): every wire additionally chooses a width from
	// Sizing.Widths. Nil disables sizing (all wires at minimum width).
	Sizing *Sizing
	// Budget bounds the run: wall-clock deadline (via context), candidate
	// list size, and tree size. Nil means unlimited. On violation the
	// solver returns an error wrapping guard.ErrCanceled or
	// guard.ErrBudgetExceeded; the input tree is never modified either
	// way.
	Budget *guard.Budget
	// Engine selects the dynamic-program organization: EngineAuto (the
	// default, also chosen by ""), EngineVG, or EngineLiShi. Engines
	// return bit-identical answers, placements included, by
	// construction — the enginetest suite is the gate — so Engine is
	// excluded from every cache key: a cached result answers a request
	// from any engine. Unknown names are rejected with
	// guard.ErrInvalidInput by Optimize and Solve.
	Engine string

	// workers bounds the goroutines the bottom-up dynamic program may use
	// to solve independent subtrees concurrently at branch-merge points.
	// 0 (what every production caller passes) picks GOMAXPROCS
	// automatically, staying serial on trees too small to amortize the
	// scheduling; 1 forces the serial walk; N > 1 forces an N-worker pool
	// even on small trees. Unexported: only the engine registry and this
	// package's tests force a width, to pin serial/parallel bit identity
	// — the parallel schedule changes when nodes are computed, never what
	// they compute, so it is excluded from every cache key.
	workers int

	// memo, when non-nil, threads a session's subtree memo table into the
	// dynamic program (see Delta). Unexported: only the session layer may
	// install it, because correctness depends on the hashes slice staying
	// synchronized with the tree being solved.
	memo *memoRun
}

// Sizing configures simultaneous wire sizing. Widening a wire divides its
// resistance by the width multiplier and grows the non-fringe part of its
// capacitance proportionally; the sidewall coupling current is unchanged,
// so widening is itself a noise-avoidance move.
type Sizing struct {
	// Widths are the available width multipliers (relative to minimum
	// width), e.g. {1, 2, 4}. Include 1 unless minimum width is banned.
	Widths []float64
	// Fringe is the fraction of a minimum-width wire's capacitance that
	// does not scale with width. Zero means 0.5.
	Fringe float64
}

// Validate checks the wire-sizing configuration. Errors wrap
// guard.ErrInvalidInput. A nil Sizing (sizing disabled) is valid.
func (s *Sizing) Validate() error {
	if s == nil {
		return nil
	}
	if len(s.Widths) == 0 {
		return fmt.Errorf("core: Sizing.Widths is empty; include at least width 1: %w", guard.ErrInvalidInput)
	}
	for i, w := range s.Widths {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return fmt.Errorf("core: Sizing.Widths[%d] = %g must be positive and finite: %w",
				i, w, guard.ErrInvalidInput)
		}
	}
	if math.IsNaN(s.Fringe) || s.Fringe < 0 || s.Fringe > 1 {
		return fmt.Errorf("core: Sizing.Fringe = %g must lie in [0, 1]: %w", s.Fringe, guard.ErrInvalidInput)
	}
	return nil
}

// vgo builds the engine options shared by every public entry point. The
// engine name is assumed validated (Optimize and Solve call ParseEngine
// first); an unvalidated empty string still resolves to the auto default.
func (o Options) vgo() vgOptions {
	v := vgOptions{safePruning: o.SafePruning, budget: o.Budget, workers: o.workers, engine: o.Engine, memo: o.memo}
	if o.memo != nil {
		v.slab = o.memo.slab
	}
	if v.engine == "" {
		v.engine = EngineAuto
	}
	if o.Sizing != nil {
		v.widths = o.Sizing.Widths
		v.fringe = o.Sizing.Fringe
	}
	return v
}

// invalid tags a validation failure with the taxonomy's invalid-input
// class, preserving the original message for errors.Is dispatch.
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", guard.ErrInvalidInput, err)
}

// Result bundles a Solution with the dynamic program's own view of it, so
// callers do not need to re-run analysis to learn what the optimizer
// thought it achieved.
type Result struct {
	*Solution
	// Slack is the timing slack at the source, min over sinks of
	// RAT − delay, as computed by the dynamic program.
	Slack float64
	// Cost is the solution's total buffer weight (the Lillis power
	// function; equal to the buffer count when every weight is 1).
	Cost int
}

// optimize is the one dynamic-program driver behind Optimize, Delta, and
// Solve's DP tiers: the objective sets the noise constraints (MaxSlack is
// the Section V DelayOpt baseline, the other two are Algorithm 3), and
// Problem.MaxBuffers turns on the Lillis count-indexed lists capped at k
// — DelayOpt(k) and BuffOpt(k). MinBuffersNoise deepens the cap itself
// (see minBuffers). The caller has validated p and opts.
//
// A memoized run writes its solution links to the session's slab; any
// other solve takes a slab from the pool and returns it once finishVG
// has read the answer out of it.
func optimize(p Problem, opts Options) (*Result, error) {
	vo := opts.vgo()
	if vo.slab == nil {
		vo.slab = getSlab()
		defer vo.slab.release()
	}
	if p.Objective != MaxSlack {
		vo.noise = true
		vo.params = p.Params
	}
	if p.Objective == MinBuffersNoise {
		return minBuffers(p, vo)
	}
	k := math.MaxInt
	if p.MaxBuffers != nil {
		k = *p.MaxBuffers
		vo.countIndexed = true
		vo.maxBuffers = k
	}
	cands, err := runVG(p.Tree, p.Library, vo)
	if err != nil {
		return nil, err
	}
	best, ok := maxSlack(cands, k)
	if !ok {
		return nil, noSolution(p)
	}
	return finishVG(p.Tree, p.Library, best, vo)
}

// minBuffers solves Problem 3, the configuration of the BuffOpt tool in
// the Section V experiments: the minimum total buffer weight (the Lillis
// power function — the buffer count when all weights are 1, or
// area/power with explicit Buffer.Weight values) such that
// both the noise constraints and slack ≥ 0 hold, maximizing slack as a
// secondary objective.
//
// Buffer counts are explored by iterative deepening (caps 2, 4, 8, …): a
// feasible solution found under cap m is count-minimal outright, because
// every smaller count was also explored, and most nets resolve at the
// first cap. This keeps BuffOpt's candidate lists shorter than
// DelayOpt(k)'s — the run-time effect Section V reports.
//
// When no buffer count achieves non-negative slack, the noise-feasible
// solution with maximum slack is returned (best effort): noise
// constraints are hard, timing is maximized.
func minBuffers(p Problem, vo vgOptions) (*Result, error) {
	const hardCap = 64
	var fallback *vgCand
	vo.countIndexed = true
	for limit := 2; limit <= hardCap; limit *= 2 {
		vo.maxBuffers = limit
		cands, err := runVG(p.Tree, p.Library, vo)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			continue // noise-infeasible under this cap
		}
		// cands is sorted by ascending cost, then descending slack: the
		// first candidate with non-negative slack is the cost-minimal
		// feasible solution, with the best slack at that cost.
		for _, c := range cands {
			if c.q >= 0 {
				return finishVG(p.Tree, p.Library, c, vo)
			}
		}
		// Noise is satisfiable but timing is not (yet): remember the best
		// slack and allow more buffers in case they close the gap; stop
		// once extra headroom no longer improves anything.
		c, _ := maxSlack(cands, math.MaxInt)
		if fallback != nil && c.q <= fallback.q {
			break
		}
		fallback = &c
	}
	if fallback != nil {
		return finishVG(p.Tree, p.Library, *fallback, vo)
	}
	return nil, noSolution(p)
}

// noSolution is the error for an empty final candidate list, named after
// the paper's tool for the objective. Noise-aware objectives wrap
// ErrNoiseUnfixable; a delay-only list can only come up empty through the
// k bound or the source polarity filter, so its error carries no
// sentinel.
func noSolution(p Problem) error {
	tool := "BuffOpt"
	if p.Objective == MaxSlack {
		tool = "DelayOpt"
	}
	if p.MaxBuffers != nil {
		tool = fmt.Sprintf("%s(%d)", tool, *p.MaxBuffers)
	}
	if p.Objective == MaxSlack {
		return fmt.Errorf("core: %s produced no candidates", tool)
	}
	return fmt.Errorf("core: %s found no noise-feasible solution: %w", tool, ErrNoiseUnfixable)
}

// maxSlack picks the candidate with the largest slack among those of
// total weight at most k (weight equals count for unit-weight libraries);
// ties break toward smaller weight.
func maxSlack(cands []vgCand, k int) (vgCand, bool) {
	var best vgCand
	found := false
	for _, c := range cands {
		if c.cost > k {
			continue
		}
		if !found || c.q > best.q || (c.q == best.q && c.cost < best.cost) {
			best, found = c, true
		}
	}
	return best, found
}

// finishVG materializes a chosen candidate into a Result with a private
// tree copy, applying any chosen wire widths to the copy's parasitics so
// the standard analyzers see exactly what the dynamic program computed.
// lib is the library the run solved with; the solution links, in
// vo.slab, index it.
func finishVG(t *rctree.Tree, lib *buffers.Library, c vgCand, vo vgOptions) (*Result, error) {
	assign, widths := collectSol(vo.slab, c.sol, lib)
	work := t.Clone()
	for v, wd := range widths {
		node := work.Node(v)
		w := node.Wire
		w.R, w.C = vo.wireVariant(w, wd)
		if vo.noise && vo.params.Slope > 0 && w.C > 0 {
			// Freeze the coupling current at its minimum-width (sidewall)
			// value: the metric's estimation mode would otherwise scale it
			// with the grown ground capacitance.
			iw := vo.params.WireCurrent(node.Wire)
			w.Aggressors = []rctree.Coupling{{
				Ratio: iw / (vo.params.Slope * w.C),
				Slope: vo.params.Slope,
			}}
		}
		node.Wire = w
	}
	if len(widths) == 0 {
		widths = nil
	}
	sol := &Solution{Tree: work, Buffers: assign, Widths: widths}
	return &Result{Solution: sol, Slack: c.q, Cost: c.cost}, nil
}

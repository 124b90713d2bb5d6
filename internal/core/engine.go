package core

import (
	"context"
	"fmt"

	"buffopt/internal/guard"
)

// The dynamic program runs under one of several engines. All engines
// solve the same problems and return bit-identical answers by
// construction — objective values, buffer placement and wire widths; the
// engine changes how candidate lists are organized and merged, never
// which optimum is found. The enginetest suite
// (internal/core/enginetest) is the gate on that contract: every engine
// registered in EngineTable is differenced against serial VG over the
// stratified corpus, checked against the exhaustive oracle on small
// nets, and run through the metamorphic property catalog.
const (
	// EngineVG is the classic Van Ginneken-style dynamic program
	// (Algorithm 3 with the Lillis extensions): full cross-product branch
	// merges followed by dominance pruning. O(b²n²) over a b-type
	// library.
	EngineVG = "vg"
	// EngineLiShi is the Li–Shi fast multi-type organization (PAPERS.md,
	// arXiv:0710.4691): candidate lists kept in the canonical sorted
	// order, branch merges computed directly on the per-group Pareto
	// frontiers by a two-pointer walk — O(L1+L2) instead of the O(L1·L2)
	// cross product — cutting the DP to O(bn²). Noise runs stream buffer
	// insertion over every merge pair without materializing them and keep
	// the walk's list; safe-pruning runs use the classic merge. The few
	// nodes where the walk's exactness cannot be shown (see lishi.go) fall
	// back to the classic step, so the engine is bit-identical to VG in
	// every configuration.
	EngineLiShi = "lishi"
	// EngineAuto picks per run: Li–Shi unless safe pruning is on or the
	// library has a single type (where the b²→b reduction buys nothing),
	// classic VG otherwise.
	EngineAuto = "auto"
)

// ParseEngine validates and normalizes an engine name: the empty string
// selects EngineAuto (the default), which resolves per run to Li–Shi
// where the fast merge applies and classic VG everywhere else — the
// BENCH-backed choice (see DESIGN §16: Li–Shi wins from 2 buffer types
// up, and auto is bit-identical to both by the enginetest gate). Unknown
// names wrap guard.ErrInvalidInput, so CLIs exit with the invalid-input
// code and bufferd answers 400 — never a panic or a silent fallback.
func ParseEngine(s string) (string, error) {
	switch s {
	case "":
		return EngineAuto, nil
	case EngineVG, EngineLiShi, EngineAuto:
		return s, nil
	}
	return "", fmt.Errorf("core: unknown engine %q (want %q, %q, or %q): %w",
		s, EngineVG, EngineLiShi, EngineAuto, guard.ErrInvalidInput)
}

// EngineSpec is one row of the engine registry: a named way of solving a
// Problem, with its contract class. The enginetest suite iterates this
// table, so a new engine is gated the moment it is registered.
type EngineSpec struct {
	// Name identifies the engine in test output and telemetry.
	Name string
	// Exact engines must produce serial VG's answer bit for bit (slack
	// bits, cost, placement, widths) on every problem, and must match the
	// exhaustive oracle on small nets. Heuristic engines (greedy) are
	// held only to validity and never-better-than-exact.
	Exact bool
	// Noise reports whether the engine supports noise-constrained
	// objectives; delay-only engines are skipped on those problems.
	Noise bool
	// Run solves one problem. Exact engines route through Optimize with
	// the engine selected; heuristics adapt their own entry points.
	Run func(ctx context.Context, p Problem, opts Options) (*Result, error)
}

// EngineTable returns the registered engines. Serial VG is first: it is
// the reference the differential assertions compare everything else to.
func EngineTable() []EngineSpec {
	viaOptimize := func(engine string, workers int) func(context.Context, Problem, Options) (*Result, error) {
		return func(ctx context.Context, p Problem, opts Options) (*Result, error) {
			opts.Engine = engine
			opts.workers = workers
			return Optimize(ctx, p, opts)
		}
	}
	return []EngineSpec{
		{Name: "vg", Exact: true, Noise: true, Run: viaOptimize(EngineVG, 1)},
		{Name: "vg-parallel", Exact: true, Noise: true, Run: viaOptimize(EngineVG, 4)},
		{Name: "lishi", Exact: true, Noise: true, Run: viaOptimize(EngineLiShi, 1)},
		{Name: "lishi-parallel", Exact: true, Noise: true, Run: viaOptimize(EngineLiShi, 4)},
		{Name: "auto", Exact: true, Noise: true, Run: viaOptimize(EngineAuto, 0)},
		{Name: "greedy", Exact: false, Noise: true, Run: runGreedyEngine},
	}
}

// runGreedyEngine adapts GreedyIterative to the registry signature. The
// greedy heuristic has no count-bound mode; bounded problems reuse the
// bound as its insertion cap.
func runGreedyEngine(ctx context.Context, p Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxBuf := greedyMaxBuffers
	if p.MaxBuffers != nil {
		maxBuf = *p.MaxBuffers
	}
	return GreedyIterative(p.Tree, p.Library, GreedyOptions{
		Noise:      p.Objective != MaxSlack,
		Params:     p.Params,
		MaxBuffers: maxBuf,
		Budget:     budgetFor(ctx, opts.Budget),
	})
}

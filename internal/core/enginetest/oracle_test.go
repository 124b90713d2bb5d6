package enginetest

import (
	"context"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// The exhaustive oracle closes the loop the differential suite cannot:
// cross-engine agreement proves the engines compute the same thing, not
// that the thing is the optimum. On nets small enough to enumerate every
// buffer assignment, every exact engine in the table is checked against
// brute force (and against serial VG's whole answer) — for the unconstrained, noise-constrained, and min-weight
// objectives, over single- and multi-type libraries (inverters included,
// so polarity bookkeeping faces the oracle too).

// oracleLibs returns the libraries the oracle sweep quantifies over.
func oracleLibs() []*buffers.Library {
	single := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
	}}
	multi := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
		{Name: "b", Cin: 0.02, R: 2.2, T: 0.25, NoiseMargin: 5},
		{Name: "I", Cin: 0.03, R: 1.6, T: 0.2, NoiseMargin: 5, Inverting: true},
	}}
	return []*buffers.Library{single, multi}
}

// oracleSites counts the legal insertion sites brute force enumerates
// over; the sweep keeps this at 8 or below so (|lib|+1)^sites stays far
// under core.MaxExhaustiveAssignments.
func oracleSites(tr *rctree.Tree) int {
	n := 0
	for _, v := range tr.Preorder() {
		if v != tr.Root() && tr.Node(v).BufferOK {
			n++
		}
	}
	return n
}

func TestEnginesMatchExhaustiveOracle(t *testing.T) {
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	trials := 40
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(424242))
	table := core.EngineTable()
	checked := 0
	for trial := 0; trial < trials; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 4, MaxSinks: 3, MarginLo: 3, MarginHi: 8,
			RATLo: 40, RATHi: 100, BufferSites: true,
		})
		if _, err := segment.ByCount(tr, 2); err != nil {
			t.Fatal(err)
		}
		if oracleSites(tr) > 8 {
			continue
		}
		for li, lib := range oracleLibs() {
			// Unconstrained and noise-constrained max-slack against the
			// brute-force optimum.
			for _, enforceNoise := range []bool{false, true} {
				objective := core.MaxSlack
				if enforceNoise {
					objective = core.MaxSlackNoise
				}
				want, _, feasible, err := core.ExhaustiveMaxSlackNoise(tr, lib, p, enforceNoise)
				if err != nil {
					t.Fatal(err)
				}
				prob := core.Problem{Tree: tr, Library: lib, Params: p, Objective: objective}
				var base *core.Result // serial VG's answer, table row 0
				for _, spec := range table {
					if !spec.Exact {
						continue
					}
					res, err := spec.Run(context.Background(), prob, core.Options{})
					if !feasible {
						if err == nil {
							t.Fatalf("trial %d lib %d %v: engine %s solved an infeasible net",
								trial, li, objective, spec.Name)
						}
						continue
					}
					if err != nil {
						t.Fatalf("trial %d lib %d %v: engine %s failed, oracle slack %g: %v",
							trial, li, objective, spec.Name, want, err)
					}
					if !approx(res.Slack, want) {
						t.Fatalf("trial %d lib %d %v: engine %s slack %g, oracle %g",
							trial, li, objective, spec.Name, res.Slack, want)
					}
					if base == nil {
						base = res
					} else if err := sameAnswer(base, res); err != nil {
						t.Fatalf("trial %d lib %d %v: engine %s: %v", trial, li, objective, spec.Name, err)
					}
				}
			}
			// Min-weight: the oracle minimizes the clean count with no
			// timing or polarity constraint, so the comparison runs on a
			// copy whose sinks have unbounded RATs — timing can never
			// force the DP past the oracle's count, and the unit-weight
			// libraries make cost a count.
			slow := tr.Clone()
			for _, v := range slow.Sinks() {
				slow.Node(v).RAT = 1e9
			}
			bestCount, _, clean, err := core.ExhaustiveMinBuffersNoise(slow, lib, p)
			if err != nil {
				t.Fatal(err)
			}
			prob := core.Problem{Tree: slow, Library: lib, Params: p, Objective: core.MinBuffersNoise}
			var base *core.Result
			for _, spec := range table {
				if !spec.Exact {
					continue
				}
				res, err := spec.Run(context.Background(), prob, core.Options{})
				if !clean {
					if err == nil {
						t.Fatalf("trial %d lib %d minbuf: engine %s solved a noise-unfixable net",
							trial, li, spec.Name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d lib %d minbuf: engine %s failed, oracle count %d: %v",
						trial, li, spec.Name, bestCount, err)
				}
				if base == nil {
					base = res
				} else if err := sameAnswer(base, res); err != nil {
					t.Fatalf("trial %d lib %d minbuf: engine %s: %v", trial, li, spec.Name, err)
				}
				// The oracle's enumeration ignores polarity (a buffer
				// assignment only fixing noise), while the DP's min-weight
				// mode also requires sink polarity; with inverters in the
				// library the DP may legitimately need more. Compare
				// exactly for non-inverting libraries, lower-bound
				// otherwise.
				inverterFree := true
				for _, b := range lib.Buffers {
					if b.Inverting {
						inverterFree = false
					}
				}
				if res.Slack >= 0 {
					if inverterFree && res.Cost != bestCount {
						t.Fatalf("trial %d lib %d minbuf: engine %s cost %d, oracle %d",
							trial, li, spec.Name, res.Cost, bestCount)
					}
					if res.Cost < bestCount {
						t.Fatalf("trial %d lib %d minbuf: engine %s cost %d beats oracle %d",
							trial, li, spec.Name, res.Cost, bestCount)
					}
				}
			}
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("only %d of %d trials reached the oracle; the generator is degenerate", checked, trials)
	}
}

package buffopt_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// Deterministic pins on the dynamic program: no wall clock, only counts
// that move when the DP's work or its allocation pattern changes.

// dpAllocBudget caps one MinBuffersNoise solve of BenchmarkBuffOptMinBuffers'
// net, and noiseAllocBudget one MaxSlackNoise solve of it. The solves
// measure about 700 and 645 allocations — 1,223 and 2,258 before the
// streamed noise-mode branch merge, and the first 3,017 before the dense
// insertion table and index-only solution links. The headroom absorbs
// the candidate and table pools' misses, e.g. the few dozen more the
// race detector's sync.Pool drops cause.
const (
	dpAllocBudget    = 820
	noiseAllocBudget = 760
)

// TestDPAllocBudget pins the DP's allocations per solve on the benchmark
// net, the way TestSpanAllocBudget pins a span's.
func TestDPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 40-net suite")
	}
	old := obs.Default()
	defer obs.SetDefault(old)
	obs.SetDefault(obs.NewRegistry())
	tr, lib, p := benchNet(t)
	for _, pin := range []struct {
		objective core.Objective
		budget    float64
	}{
		{core.MinBuffersNoise, dpAllocBudget},
		{core.MaxSlackNoise, noiseAllocBudget},
	} {
		prob := core.Problem{Tree: tr, Library: lib, Params: p, Objective: pin.objective}
		var err error
		got := testing.AllocsPerRun(20, func() {
			_, err = core.Optimize(context.Background(), prob, core.Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v solve: %v allocs", pin.objective, got)
		if got > pin.budget {
			t.Fatalf("%v solve allocates %v per op, budget is %v", pin.objective, got, pin.budget)
		}
	}
}

// TestDPWorkCounters pins the DP's exact work ledger over the seed-1
// 40-net suite under the three objectives: candidates generated, pruned
// and merged, nodes visited, and the list high-water mark. The counters
// are schedule-independent (the differential suite checks serial and
// parallel walks agree), so any change here means the DP itself changed.
func TestDPWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 40-net suite")
	}
	old := obs.Default()
	defer obs.SetDefault(old)
	obs.SetDefault(obs.NewRegistry())
	s := benchSuite(t)
	for _, obj := range []core.Objective{core.MinBuffersNoise, core.MaxSlackNoise, core.MaxSlack} {
		for i, tr := range s.Segmented {
			prob := core.Problem{Tree: tr, Library: s.Library, Params: s.Tech.Noise, Objective: obj}
			if _, err := core.Optimize(context.Background(), prob, core.Options{}); err != nil {
				t.Fatalf("net %d, objective %v: %v", i, obj, err)
			}
		}
	}
	snap := obs.Default().Snapshot()
	for _, pin := range []struct {
		name string
		got  int64
		want int64
	}{
		{"vg.candidates.generated", snap.Counters["vg.candidates.generated"], 71818},
		{"vg.candidates.pruned", snap.Counters["vg.candidates.pruned"], 51677},
		{"vg.candidates.merged", snap.Counters["vg.candidates.merged"], 35961},
		{"vg.nodes.visited", snap.Counters["vg.nodes.visited"], 2489},
		{"vg.list.highwater", snap.Gauges["vg.list.highwater"], 134},
	} {
		if pin.got != pin.want {
			t.Errorf("%s = %d, pinned at %d", pin.name, pin.got, pin.want)
		}
	}
}

// TestZeroBufferCapHonored is the MaxBuffers = 0 regression on the
// benchmark net: a zero cap admits no buffer, so DelayOpt(0) returns the
// unbuffered answer inside a candidate budget the uncapped count-indexed
// DP overruns,
// and BuffOpt(0) either returns that same unbuffered answer or reports
// the net's noise as unfixable — never a budget overrun.
func TestZeroBufferCapHonored(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 40-net suite")
	}
	tr, lib, p := benchNet(t)
	budget := func() core.Options {
		b := guard.New(context.Background())
		b.MaxCandidates = 500
		return core.Options{Budget: b}
	}
	// An effectively uncapped count-indexed DP overruns the budget, so the
	// zero cap is what keeps the runs below inside it.
	huge := 1 << 20
	uncapped := core.Problem{Tree: tr, Library: lib, Objective: core.MaxSlack, MaxBuffers: &huge}
	if _, err := core.Optimize(context.Background(), uncapped, budget()); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("DelayOpt(%d) under 500 candidates: err = %v, want a budget overrun", huge, err)
	}
	// The DP charges wires incrementally, the analyzer sums arrivals, so
	// the two slacks agree to rounding, not to the bit.
	want := elmore.Analyze(tr, nil).WorstSlack

	zero := 0
	for _, obj := range []core.Objective{core.MaxSlack, core.MaxSlackNoise} {
		prob := core.Problem{Tree: tr, Library: lib, Params: p, Objective: obj, MaxBuffers: &zero}
		res, err := core.Optimize(context.Background(), prob, budget())
		if obj == core.MaxSlackNoise && errors.Is(err, core.ErrNoiseUnfixable) {
			continue
		}
		if err != nil {
			t.Fatalf("objective %v, k = 0: %v", obj, err)
		}
		if res.NumBuffers() != 0 || res.Cost != 0 {
			t.Fatalf("objective %v, k = 0: %d buffers (cost %d), want none", obj, res.NumBuffers(), res.Cost)
		}
		if math.Abs(res.Slack-want) > 1e-9*math.Abs(want) {
			t.Fatalf("objective %v, k = 0: slack %g, want the unbuffered %g", obj, res.Slack, want)
		}
	}
}

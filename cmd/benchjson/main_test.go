package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: buffopt
cpu: AMD EPYC 7B13
BenchmarkBuffOpt-8   	     100	  11059143 ns/op	 4727492 B/op	   78610 allocs/op
BenchmarkElmoreAnalyze-8  	  500000	      2301 ns/op
BenchmarkTableII-8       	       1	1892273550 ns/op	919023888 B/op	11696899 allocs/op
PASS
ok  	buffopt	12.3s
`

func TestParse(t *testing.T) {
	rec, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" || rec.Package != "buffopt" {
		t.Errorf("header = %q/%q/%q", rec.Goos, rec.Goarch, rec.Package)
	}
	if rec.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", rec.CPU)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(rec.Benchmarks))
	}
	b := rec.Benchmarks[0]
	if b.Name != "BenchmarkBuffOpt-8" || b.Iterations != 100 ||
		b.NsPerOp != 11059143 || b.BPerOp != 4727492 || b.AllocsOp != 78610 {
		t.Errorf("first benchmark = %+v", b)
	}
	// ns/op-only line (no -benchmem columns) still parses.
	if rec.Benchmarks[1].NsPerOp != 2301 || rec.Benchmarks[1].BPerOp != 0 {
		t.Errorf("second benchmark = %+v", rec.Benchmarks[1])
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo-8",
		"BenchmarkFoo-8 abc 123 ns/op",
		"BenchmarkFoo-8 100 xx ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted", line)
		}
	}
}

func TestDerive(t *testing.T) {
	d := derive(map[string]int64{
		"vg.candidates.generated": 1000,
		"vg.candidates.pruned":    850,
		"sim.awe.rails":           20,
		"sim.awe.rejected":        3,
	})
	if math.Abs(d["vg_prune_ratio"]-0.85) > 1e-12 {
		t.Errorf("vg_prune_ratio = %v", d["vg_prune_ratio"])
	}
	if math.Abs(d["awe_fallback_ratio"]-0.15) > 1e-12 {
		t.Errorf("awe_fallback_ratio = %v", d["awe_fallback_ratio"])
	}
	if derive(map[string]int64{}) != nil {
		t.Error("empty counters should derive nil")
	}
}

// TestDeriveEngineSweep: the library-sweep rows reduce to per-size
// vg/lishi speedups and the smallest library size where Li–Shi wins.
func TestDeriveEngineSweep(t *testing.T) {
	d := deriveEngineSweep([]Benchmark{
		{Name: "BenchmarkLibrarySweep/types-2/vg-8", NsPerOp: 100},
		{Name: "BenchmarkLibrarySweep/types-2/lishi-8", NsPerOp: 125},
		{Name: "BenchmarkLibrarySweep/types-11/vg-8", NsPerOp: 900},
		{Name: "BenchmarkLibrarySweep/types-11/lishi-8", NsPerOp: 300},
		{Name: "BenchmarkLibrarySweep/types-32/lishi-8", NsPerOp: 500}, // vg row missing: skipped
		{Name: "BenchmarkBuffOpt-8", NsPerOp: 42},
	})
	if math.Abs(d["engine_sweep_speedup_b2"]-0.8) > 1e-12 {
		t.Errorf("speedup_b2 = %v", d["engine_sweep_speedup_b2"])
	}
	if math.Abs(d["engine_sweep_speedup_b11"]-3) > 1e-12 {
		t.Errorf("speedup_b11 = %v", d["engine_sweep_speedup_b11"])
	}
	if _, ok := d["engine_sweep_speedup_b32"]; ok {
		t.Error("half-present size 32 should be skipped")
	}
	if d["engine_crossover_b"] != 11 {
		t.Errorf("crossover = %v, want 11", d["engine_crossover_b"])
	}
	if deriveEngineSweep([]Benchmark{{Name: "BenchmarkBuffOpt-8", NsPerOp: 1}}) != nil {
		t.Error("no sweep rows should derive nil")
	}
}

// TestDeriveEco: BenchmarkDeltaResolve's full and fresh rows reduce to
// eco_speedup, the fresh row's custom reuse_rate unit rides along as
// eco_reuse_rate, and the revisit row is kept under eco_revisit_*.
func TestDeriveEco(t *testing.T) {
	d := deriveEco([]Benchmark{
		{Name: "BenchmarkDeltaResolve/full-8", NsPerOp: 7_000_000},
		{Name: "BenchmarkDeltaResolve/revisit-8", NsPerOp: 250_000,
			Extra: map[string]float64{"reuse_rate": 0.99}},
		{Name: "BenchmarkDeltaResolve/fresh-8", NsPerOp: 350_000,
			Extra: map[string]float64{"reuse_rate": 0.98}},
	})
	for k, want := range map[string]float64{
		"eco_speedup": 20, "eco_reuse_rate": 0.98,
		"eco_revisit_speedup": 28, "eco_revisit_reuse_rate": 0.99,
	} {
		if math.Abs(d[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, d[k], want)
		}
	}
	if deriveEco([]Benchmark{{Name: "BenchmarkDeltaResolve/full-8", NsPerOp: 1}}) != nil {
		t.Error("a lone full row should derive nil")
	}
}

// TestParseLineExtraUnits: custom b.ReportMetric units land in Extra.
func TestParseLineExtraUnits(t *testing.T) {
	b, ok := parseLine("BenchmarkDeltaResolve/fresh-8   	    5000	    238833 ns/op	         0.9899 reuse_rate")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.NsPerOp != 238833 || math.Abs(b.Extra["reuse_rate"]-0.9899) > 1e-12 {
		t.Errorf("parsed %+v", b)
	}
}

// TestFleetMerge: a loadgen report rides into the record verbatim under
// "fleet", and a non-JSON report file is a hard error, not silent junk.
func TestFleetMerge(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	fleet := filepath.Join(dir, "fleet.json")
	report := `{"replicas": 3, "arms": [{"routing": "hash", "p99_ms": 4.2}],
		"restart": {"warm_p99_ms": 3.5, "cold_p99_ms": 9.25, "refill_ms": 120.5},
		"eco": {"delta_p99_ms": 1.75, "session_reuse_rate": 0.82, "sessions": 12}}`
	if err := os.WriteFile(fleet, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	if err := run(in, "", fleet, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, data)
	}
	var got struct {
		Replicas int `json:"replicas"`
		Arms     []struct {
			Routing string  `json:"routing"`
			P99MS   float64 `json:"p99_ms"`
		} `json:"arms"`
	}
	if err := json.Unmarshal(rec.Fleet, &got); err != nil {
		t.Fatalf("fleet field does not parse: %v", err)
	}
	if got.Replicas != 3 || len(got.Arms) != 1 || got.Arms[0].Routing != "hash" || got.Arms[0].P99MS != 4.2 {
		t.Errorf("fleet round-trip = %+v", got)
	}
	// The restart arm's numbers are lifted into derived as restart_* so
	// they trend with the rest of the record.
	for k, want := range map[string]float64{
		"restart_warm_p99_ms": 3.5,
		"restart_cold_p99_ms": 9.25,
		"restart_refill_ms":   120.5,
	} {
		if got := rec.Derived[k]; got != want {
			t.Errorf("derived[%q] = %v, want %v", k, got, want)
		}
	}
	// Likewise the eco arm's numbers as eco_*.
	for k, want := range map[string]float64{
		"eco_delta_p99_ms":       1.75,
		"eco_session_reuse_rate": 0.82,
		"eco_sessions":           12,
	} {
		if got := rec.Derived[k]; got != want {
			t.Errorf("derived[%q] = %v, want %v", k, got, want)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, "", bad, out); err == nil {
		t.Error("invalid fleet report accepted")
	}
}

// TestParseRepeatedCounts: `go test -count N` prints N lines per
// benchmark; parse reduces them to one record per name, in first-seen
// order, each figure the median of its samples, with the sample count.
func TestParseRepeatedCounts(t *testing.T) {
	const text = `BenchmarkA-2   100   300 ns/op   64 B/op   3 allocs/op   0.5 reuse_rate
BenchmarkB-2   10   7000 ns/op
BenchmarkA-2   120   100 ns/op   32 B/op   3 allocs/op   0.7 reuse_rate
BenchmarkA-2   90   200 ns/op   96 B/op   4 allocs/op   0.6 reuse_rate
BenchmarkB-2   12   5000 ns/op
`
	rec, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("got %d records, want one per name: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	a, b := rec.Benchmarks[0], rec.Benchmarks[1]
	if a.Name != "BenchmarkA-2" || a.Samples != 3 || a.Iterations != 100 ||
		a.NsPerOp != 200 || a.BPerOp != 64 || a.AllocsOp != 3 || a.Extra["reuse_rate"] != 0.6 {
		t.Errorf("odd-count median = %+v", a)
	}
	// Even count: the mean of the two middle samples.
	if b.Name != "BenchmarkB-2" || b.Samples != 2 || b.Iterations != 11 || b.NsPerOp != 6000 {
		t.Errorf("even-count median = %+v", b)
	}
	// A single line stays as parsed, with one sample.
	one, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s := one.Benchmarks[0]; s.Samples != 1 || s.NsPerOp != 11059143 || s.Iterations != 100 {
		t.Errorf("single sample = %+v", s)
	}
}

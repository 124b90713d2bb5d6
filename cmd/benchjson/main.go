// Command benchjson converts `go test -bench` text output into a JSON
// regression record, optionally merged with an obs metrics snapshot so one
// file carries both machine performance (ns/op, allocs/op) and solver
// work counters (candidates generated, prune ratio).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -out BENCH_2026-08-05.json
//	benchjson -in bench.txt -metrics metrics.json -out BENCH_2026-08-05.json
//	benchjson -in bench.txt -fleet fleet.json -out BENCH_2026-08-05.json
//
// -fleet merges a cmd/loadgen fleet report (router p50/p99, hedge rate,
// per-arm cache-hit rates) into the record under "fleet"; if the report
// carries a restart arm (loadgen -restart) or an eco arm (loadgen -eco),
// their numbers are also lifted into "derived" as restart_<field> /
// eco_<field> so they trend with the solver metrics.
//
// The input text stays benchstat-compatible (benchjson only reads it);
// scripts/bench.sh tees it alongside the JSON for direct benchstat diffs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BPerOp     float64 `json:"b_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "reuse_rate") keyed
	// by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Samples is the number of result lines of this name (go test
	// -count) the figures summarize; each figure is their median.
	Samples int `json:"samples"`
}

// Record is the file written to BENCH_<date>.json.
type Record struct {
	Date       string             `json:"date"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Package    string             `json:"pkg,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Counters   map[string]int64   `json:"counters,omitempty"`
	Gauges     map[string]int64   `json:"gauges,omitempty"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	// Fleet carries a cmd/loadgen report (router latency quantiles,
	// hedge rate, cache-hit rates per routing arm) verbatim, so one
	// dated file records solver and fleet regressions together.
	Fleet json.RawMessage `json:"fleet,omitempty"`
}

func main() {
	var (
		in      = flag.String("in", "", "bench text input (default stdin)")
		metrics = flag.String("metrics", "", "obs metrics snapshot JSON to merge (optional)")
		fleetIn = flag.String("fleet", "", "cmd/loadgen fleet report JSON to merge (optional)")
		out     = flag.String("out", "", "output JSON path (default stdout)")
	)
	flag.Parse()
	if err := run(*in, *metrics, *fleetIn, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(inPath, metricsPath, fleetPath, outPath string) error {
	var r io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rec, err := parse(r)
	if err != nil {
		return err
	}
	rec.Date = time.Now().Format("2006-01-02")

	if metricsPath != "" {
		data, err := os.ReadFile(metricsPath)
		if err != nil {
			return err
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("metrics snapshot %s: %w", metricsPath, err)
		}
		rec.Counters = snap.Counters
		rec.Gauges = snap.Gauges
		rec.Derived = derive(snap.Counters)
	}

	// Span-overhead and engine-sweep figures come from the benchmark lines
	// themselves, so they merge with or without a -metrics snapshot.
	for _, dm := range []map[string]float64{
		deriveSpanOverhead(rec.Benchmarks),
		deriveEngineSweep(rec.Benchmarks),
		deriveEco(rec.Benchmarks),
	} {
		if len(dm) == 0 {
			continue
		}
		if rec.Derived == nil {
			rec.Derived = map[string]float64{}
		}
		for k, v := range dm {
			rec.Derived[k] = v
		}
	}

	if fleetPath != "" {
		data, err := os.ReadFile(fleetPath)
		if err != nil {
			return err
		}
		if !json.Valid(data) {
			return fmt.Errorf("fleet report %s: not valid JSON", fleetPath)
		}
		rec.Fleet = json.RawMessage(data)
		// Lift the restart arm's numeric fields (loadgen -restart) into the
		// derived metrics so restart regressions trend alongside the solver
		// numbers: restart_warm_p99_ms, restart_cold_p99_ms, ...
		var fr struct {
			Restart map[string]float64 `json:"restart"`
			Eco     map[string]float64 `json:"eco"`
		}
		if err := json.Unmarshal(data, &fr); err == nil {
			lift := func(prefix string, m map[string]float64) {
				if len(m) == 0 {
					return
				}
				if rec.Derived == nil {
					rec.Derived = map[string]float64{}
				}
				for k, v := range m {
					rec.Derived[prefix+k] = v
				}
			}
			lift("restart_", fr.Restart)
			// The eco arm (loadgen -eco): eco_delta_p99_ms,
			// eco_session_reuse_rate, ... — distinct from the bench-derived
			// eco_speedup / eco_reuse_rate and eco_revisit_*
			// (BenchmarkDeltaResolve).
			lift("eco_", fr.Eco)
		}
	}

	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

// parse reads `go test -bench` text: header lines (goos/goarch/cpu/pkg)
// and result lines of the form
//
//	BenchmarkName-8    100    11059143 ns/op    4727492 B/op    78610 allocs/op
func parse(r io.Reader) (*Record, error) {
	rec := &Record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rec.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				rec.Benchmarks = append(rec.Benchmarks, b)
			}
		}
	}
	rec.Benchmarks = medianByName(rec.Benchmarks)
	return rec, sc.Err()
}

// medianByName reduces repeated result lines of one name — `go test
// -count N` prints N of them — to one Benchmark per name, in first-seen
// order. Every figure (iterations, ns/op, B/op, allocs/op, each extra
// unit) is the median of its own samples, the midpoint mean for an even
// count, as benchstat summarizes runs.
func medianByName(lines []Benchmark) []Benchmark {
	var names []string
	runs := map[string][]Benchmark{}
	for _, b := range lines {
		if _, seen := runs[b.Name]; !seen {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		med := func(field func(Benchmark) (float64, bool)) float64 {
			var vs []float64
			for _, r := range rs {
				if v, ok := field(r); ok {
					vs = append(vs, v)
				}
			}
			return median(vs)
		}
		m := Benchmark{
			Name:       name,
			Samples:    len(rs),
			Iterations: int64(med(func(b Benchmark) (float64, bool) { return float64(b.Iterations), true })),
			NsPerOp:    med(func(b Benchmark) (float64, bool) { return b.NsPerOp, true }),
			BPerOp:     med(func(b Benchmark) (float64, bool) { return b.BPerOp, true }),
			AllocsOp:   med(func(b Benchmark) (float64, bool) { return b.AllocsOp, true }),
		}
		for _, r := range rs {
			for unit := range r.Extra {
				if _, done := m.Extra[unit]; done {
					continue
				}
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[unit] = med(func(b Benchmark) (float64, bool) {
					v, ok := b.Extra[unit]
					return v, ok
				})
			}
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count); vs is reordered. Zero for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[fields[i+1]] = v
		}
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// derive computes the ratios the regression harness tracks: how hard the
// DP pruned, how often AWE fell back to the Devgan bound.
func derive(counters map[string]int64) map[string]float64 {
	d := map[string]float64{}
	if gen := counters["vg.candidates.generated"]; gen > 0 {
		d["vg_prune_ratio"] = float64(counters["vg.candidates.pruned"]) / float64(gen)
	}
	if runs := counters["sim.awe.rails"]; runs > 0 {
		d["awe_fallback_ratio"] = float64(counters["sim.awe.rejected"]) / float64(runs)
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// deriveEngineSweep reduces the BenchmarkLibrarySweep rows into the
// engine-comparison figures the regression harness tracks: the classic
// cross-product merge's time over the Li–Shi frontier walk's at each
// library size b (engine_sweep_speedup_b<N>, > 1 means Li–Shi wins), and
// engine_crossover_b, the smallest b where Li–Shi is faster (0 if never).
func deriveEngineSweep(benches []Benchmark) map[string]float64 {
	type pair struct{ vg, lishi float64 }
	sizes := map[int]*pair{}
	for _, b := range benches {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkLibrarySweep/types-")
		if !ok {
			continue
		}
		nStr, engine, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(nStr)
		if err != nil {
			continue
		}
		p := sizes[n]
		if p == nil {
			p = &pair{}
			sizes[n] = p
		}
		switch {
		case strings.HasPrefix(engine, "vg"):
			p.vg = b.NsPerOp
		case strings.HasPrefix(engine, "lishi"):
			p.lishi = b.NsPerOp
		}
	}
	d := map[string]float64{}
	crossover := 0
	ns := make([]int, 0, len(sizes))
	for n := range sizes {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		p := sizes[n]
		if p.vg <= 0 || p.lishi <= 0 {
			continue
		}
		d[fmt.Sprintf("engine_sweep_speedup_b%d", n)] = p.vg / p.lishi
		if crossover == 0 && p.lishi < p.vg {
			crossover = n
		}
	}
	if len(d) == 0 {
		return nil
	}
	d["engine_crossover_b"] = float64(crossover)
	return d
}

// deriveSpanOverhead reduces the obs span benchmarks (enabled = metrics
// only, disabled = telemetry off, traced = collector attached) into the
// per-span costs the regression harness tracks, plus the headline
// "what does instrumenting cost" delta. Bench names carry a -N GOMAXPROCS
// suffix, so match on prefix.
func deriveSpanOverhead(benches []Benchmark) map[string]float64 {
	pick := func(prefix string) float64 {
		for _, b := range benches {
			if b.Name == prefix || strings.HasPrefix(b.Name, prefix+"-") {
				return b.NsPerOp
			}
		}
		return 0
	}
	d := map[string]float64{}
	enabled := pick("BenchmarkSpanEnabled")
	disabled := pick("BenchmarkSpanDisabled")
	traced := pick("BenchmarkSpanTraced")
	if enabled > 0 {
		d["span_ns_enabled"] = enabled
	}
	if disabled > 0 {
		d["span_ns_disabled"] = disabled
	}
	if traced > 0 {
		d["span_ns_traced"] = traced
	}
	if enabled > 0 && disabled > 0 {
		d["span_overhead_ns"] = enabled - disabled
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// deriveEco reduces the BenchmarkDeltaResolve rows into the incremental
// re-solve figures the regression harness tracks: eco_speedup, the full
// dynamic program's time over the session delta's for a single-leaf edit
// whose value never repeats (the fresh arm; the acceptance floor is 10),
// and eco_reuse_rate, the fraction of subtree lookups the fresh arm
// answered from the session memo. The revisit arm, whose 7 cycling
// values replay memoized root paths, is kept as eco_revisit_speedup and
// eco_revisit_reuse_rate.
func deriveEco(benches []Benchmark) map[string]float64 {
	var full float64
	arms := map[string]*Benchmark{}
	for i, b := range benches {
		for _, arm := range []string{"full", "fresh", "revisit"} {
			if strings.HasPrefix(b.Name, "BenchmarkDeltaResolve/"+arm) {
				arms[arm] = &benches[i]
			}
		}
	}
	if f := arms["full"]; f != nil {
		full = f.NsPerOp
	}
	d := map[string]float64{}
	for arm, prefix := range map[string]string{"fresh": "eco_", "revisit": "eco_revisit_"} {
		b := arms[arm]
		if full <= 0 || b == nil || b.NsPerOp <= 0 {
			continue
		}
		d[prefix+"speedup"] = full / b.NsPerOp
		if reuse := b.Extra["reuse_rate"]; reuse > 0 {
			d[prefix+"reuse_rate"] = reuse
		}
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

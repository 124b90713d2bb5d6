// Command e2ebench is the repository's end-to-end benchmark. It generates
// seeded Table I-shaped inputs, serves them through a server.Server built
// with cmd/bufferd's default configuration on a loopback port, drives one
// workload as a closed loop from this process, checks every answer, and
// prints the metrics by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (run.sh builds the binary from source first):
//
//	e2ebench --workload serve-cold|serve-hot|serve-large|eco-fresh
//	         --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run spends half its window untraced and half traced: each traced
// request is also replayed in process through the public calls of every
// layer, timed from this package's own spans, and the metrics are the
// per-layer ones. The spans are written to
// .bench_build/spans/<workload>-seed<N>.spans.jsonl.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: defaultSizes, spansDir: ".bench_build/spans"}
	fs.StringVar(&cfg.workload, "workload", "", "serve-cold, serve-hot, serve-large or eco-fresh")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "e2ebench: need --workload (serve-cold, serve-hot, serve-large, eco-fresh), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := bench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench runs one workload and returns its result. Human-readable lines
// (sample counts, the answer digest, the ledgers) go to out. An error
// means the run proved nothing: set-up failed or a ledger did not close.
func bench(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	st, setupS, err := setupRepeated(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer st.stop()

	window := time.Duration(cfg.seconds * float64(time.Second))
	var phases []phase
	if cfg.trace {
		phases = append(phases, st.measure(ctx, st.d.url, window/2, false))
		if err := st.syncMirror(ctx); err != nil {
			return nil, err
		}
		phases = append(phases, st.measure(ctx, st.d.traceURL, window/2, true))
	} else {
		phases = append(phases, st.measure(ctx, st.d.url, window, false))
	}
	var all clientLog
	for _, p := range phases {
		all.merge(p.clientLog)
	}
	outs := all.outs

	var rep *checkReport
	if st.eco != nil {
		rep = checkEco(ctx, st.eco, outs, cfg.seed, cfg.sizes.digestSteps, cfg.sizes.sampleN)
	} else {
		rep = checkSolve(ctx, st.in, outs, cfg.seed, cfg.workload, cfg.sizes.digestN, cfg.sizes.sampleN)
	}
	if rep.reference != nil {
		return nil, rep.reference
	}
	if err := closeLedgers(cfg.workload, all, rep, phases, out); err != nil {
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	res := &result{Attempted: len(all.reqs), Failed: len(rep.failed), Metrics: metrics{}}
	res.Correct = res.Failed == 0
	reportFailures(rep, out)
	fmt.Fprintf(out, "workload %s seed %d: closed loop, %d client(s), %.0f s measured\n",
		cfg.workload, cfg.seed, st.w.clients, cfg.seconds)
	fmt.Fprintf(out, "answer_digest %s\n", rep.digest)
	fmt.Fprintf(out, "checked: %d distinct answers re-analysed, %d re-solved in process, %d infeasible verdicts confirmed, %d wrong\n",
		len(outs)-len(rep.failed), rep.resolved, rep.verdicts, len(rep.failed))

	if !cfg.trace {
		endToEnd(res.Metrics, phases[0], setupS, rep, out)
		return res, nil
	}
	if err := st.rec.write(spansPath(cfg.spansDir, cfg.workload, cfg.seed)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	perLayer(res.Metrics, phases[0], phases[1], st, rep)
	return res, nil
}

// setupRepeated sets the workload up cfg.sizes.setupReps times, keeping
// the last, and returns the median set-up time: input generation, server
// ready, and warm-up or session creation.
func setupRepeated(ctx context.Context, cfg config) (*state, float64, error) {
	var times []float64
	var st *state
	for r := 0; r < cfg.sizes.setupReps; r++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, 0, fmt.Errorf("stop set-up %d: %w", r, err)
			}
			st = nil // let the next set-up reuse its memory
		}
		t0 := time.Now()
		s, err := setup(ctx, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	sort.Float64s(times)
	return st, times[len(times)/2], nil
}

// reportFailures prints the first few wrong answers.
func reportFailures(rep *checkReport, w io.Writer) {
	ks := make([]int, 0, len(rep.failed))
	for k := range rep.failed {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for n, k := range ks {
		if n == 5 {
			fmt.Fprintf(w, "... and %d more wrong answers\n", len(ks)-n)
			break
		}
		fmt.Fprintf(w, "wrong: %s\n", rep.failed[k])
	}
}

// closeLedgers checks that the run's books balance; a run whose ledgers
// do not close reports nothing.
func closeLedgers(workload string, all clientLog, rep *checkReport, phases []phase, w io.Writer) error {
	c := map[string]int64{}
	for _, p := range phases {
		for k, v := range p.counters {
			c[k] += v
		}
	}
	attempted, failed := len(all.reqs), len(rep.failed)
	// Answered requests the checks found wrong are failures; confirmed
	// infeasible verdicts are correct answers without a body.
	ok := okCount(all.reqs) + rep.verdicts
	for k := range rep.failed {
		if all.outs[k].err == "" {
			ok--
		}
	}
	if attempted != ok+failed {
		return fmt.Errorf("ledger: attempted %d != ok %d + failed %d", attempted, ok, failed)
	}
	if workloads[workload].eco {
		lk, ru, rs := c["server.delta.lookups"], c["server.delta.reused"], c["server.delta.resolved"]
		fmt.Fprintf(w, "ledger: attempted %d = ok %d + failed %d; server.delta requests %d, lookups %d = reused %d + resolved %d\n",
			attempted, ok, failed, c["server.delta.requests"], lk, ru, rs)
		if c["server.delta.requests"] != int64(attempted) {
			return fmt.Errorf("ledger: server counted %d delta requests, the clients sent %d", c["server.delta.requests"], attempted)
		}
		if ru+rs != lk {
			return fmt.Errorf("ledger: delta reused %d + resolved %d != lookups %d", ru, rs, lk)
		}
		return nil
	}
	lk, hits, misses := c["server.cache.lookups"], c["server.cache.hits"], c["server.cache.misses"]
	fmt.Fprintf(w, "ledger: attempted %d = ok %d + failed %d; server requests %d, cache lookups %d = hits %d + misses %d\n",
		attempted, ok, failed, c["server.requests"], lk, hits, misses)
	if c["server.requests"] != int64(attempted) {
		return fmt.Errorf("ledger: server counted %d requests, the clients sent %d", c["server.requests"], attempted)
	}
	if hits+misses != lk {
		return fmt.Errorf("ledger: cache hits %d + misses %d != lookups %d", hits, misses, lk)
	}
	switch {
	case workload == "serve-hot" && (lk == 0 || hits != lk):
		return fmt.Errorf("ledger: serve-hot hit rate %d/%d, want 1 after the warm-up pass", hits, lk)
	case workload != "serve-hot" && hits != 0:
		return fmt.Errorf("ledger: %s hit the cache %d times on nets it never repeats", workload, hits)
	}
	return nil
}

// okCount counts the answered requests.
func okCount(reqs []request) int {
	n := 0
	for _, r := range reqs {
		if r.ok {
			n++
		}
	}
	return n
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m metrics, p phase, setupS float64, rep *checkReport, w io.Writer) {
	lat := latencies(p.reqs)
	done := float64(okCount(p.reqs))
	m.set("setup_s", setupS, "s")
	m.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	m.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	rps, cpuMS := p.perSecond()
	m.set("throughput_rps", median(rps), "1/s")
	m.set("cpu_ms_per_req", median(cpuMS), "ms")
	m.set("alloc_kb_per_req", ratio(float64(p.alloc)/1024, done), "KiB")
	m.set("peak_rss_mb", p.peakRSS, "MiB")
	fmt.Fprintf(w, "throughput over %d one-second windows: min %.1f median %.1f max %.1f /s; whole window %.1f /s, %.3f CPU ms per request\n",
		len(rps), quantile(sorted(rps), 0), median(rps), quantile(sorted(rps), 1), done/p.wall.Seconds(),
		ratio(float64(p.cpu.Nanoseconds())/1e6, done))
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	fmt.Fprintf(w, "samples %d, %d beyond p99; error_rate %g (%d of %d)\n",
		len(lat), beyond, ratio(float64(len(rep.failed)), float64(len(p.reqs))), len(rep.failed), len(p.reqs))
	if beyond < 10 {
		fmt.Fprintf(w, "warning: fewer than 10 samples beyond p99; latency_p99_ms is a near-maximum\n")
	}
}

// perLayer fills the traced run's metrics: untraced phase a gives the
// runtime and overhead base, traced phase b the layer breakdown.
func perLayer(m metrics, a, b phase, st *state, rep *checkReport) {
	layerMetrics(st.rec.perRequest(), m)
	m.set("error_rate", ratio(float64(len(rep.failed)), float64(len(a.reqs)+len(b.reqs))), "ratio")
	m.set("trace_overhead", quantile(latencies(b.reqs), 0.5)-quantile(latencies(a.reqs), 0.5), "ms")

	var elapsed []float64
	for _, r := range b.reqs {
		elapsed = append(elapsed, float64(r.elapsed))
	}
	n := float64(len(b.reqs))
	m.set("server.elapsed_ms", median(elapsed), "ms")
	m.set("netfmt.bytes_per_req", ratio(float64(b.netBytes), n), "bytes")
	m.set("json.bytes_per_resp", ratio(float64(b.recv), n), "bytes")
	m.set("segment.nodes_out", ratio(float64(st.mir.segNodes.Load()), float64(st.mir.segRuns.Load())), "nodes")

	c := b.counters
	lk := float64(c["server.cache.lookups"])
	m.set("cache.hit_rate", ratio(float64(c["server.cache.hits"]), lk), "ratio")
	m.set("cache.evictions", float64(a.counters["server.cache.evicted"]+c["server.cache.evicted"]), "count")

	// The server and the mirror run the same solves, so the solver's
	// counters over phase b divide by both sides' solve count.
	solves := float64(c["server.cache.misses"] - c["server.cache.coalesced"] + c["mirror.cache.misses"])
	if st.eco != nil {
		solves = 2 * n
	}
	var answered float64
	for k, v := range c {
		if len(k) > len("solve.answered.") && k[:len("solve.answered.")] == "solve.answered." {
			answered += float64(v)
		}
	}
	m.set("core.tier_exact_rate", ratio(float64(c["solve.answered.exact"]), answered), "ratio")
	m.set("core.cands_generated", ratio(float64(c["vg.candidates.generated"]), solves), "count")
	m.set("core.cands_merged", ratio(float64(c["vg.candidates.merged"]), solves), "count")
	m.set("core.cands_pruned", ratio(float64(c["vg.candidates.pruned"]), solves), "count")
	m.set("core.nodes_visited", ratio(float64(c["vg.nodes.visited"]), solves), "count")
	m.set("core.list_highwater", float64(b.gauges["vg.list.highwater"]), "count")
	m.set("core.allocs_per_solve", rep.allocs, "count")
	par, ser := float64(c["vg.run.parallel"]), float64(c["vg.run.serial"])
	m.set("core.parallel_run_rate", ratio(par, par+ser), "ratio")

	var memo float64
	if st.eco != nil {
		dl := float64(c["server.delta.lookups"])
		m.set("eco.reuse_rate", ratio(float64(c["server.delta.reused"]), dl), "ratio")
		m.set("eco.resolved_per_delta", ratio(float64(c["server.delta.resolved"]), n), "count")
		for _, e := range st.eco {
			memo += float64(e.mirror.MemoBytes())
		}
		memo /= float64(len(st.eco))
	} else {
		m.set("eco.reuse_rate", 0, "ratio")
		m.set("eco.resolved_per_delta", 0, "count")
	}
	m.set("eco.memo_bytes", memo, "bytes")

	done := float64(okCount(a.reqs))
	m.set("go.gc_cycles_per_kreq", ratio(float64(a.gcs), done/1000), "1/kreq")
	m.set("go.gc_pause_ms", ratio(float64(a.pause)/1e6, float64(a.gcs)), "ms")
}

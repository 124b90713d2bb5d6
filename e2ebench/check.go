package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// sameAnswer reports whether two answers agree bit for bit on everything
// the solver decides: tier, buffer count and placements, slack, delay and
// noise. Timing and cache telemetry fields are not compared.
func sameAnswer(a, b server.SolveResponse) bool {
	if a.Tier != b.Tier || a.NumBuffers != b.NumBuffers || len(a.Buffers) != len(b.Buffers) ||
		a.NoiseViolations != b.NoiseViolations ||
		math.Float64bits(a.SlackPS) != math.Float64bits(b.SlackPS) ||
		math.Float64bits(a.MaxDelayPS) != math.Float64bits(b.MaxDelayPS) ||
		math.Float64bits(a.MaxNoiseV) != math.Float64bits(b.MaxNoiseV) {
		return false
	}
	for i := range a.Buffers {
		x, y := a.Buffers[i], b.Buffers[i]
		if x.Node != y.Node || x.Name != y.Name ||
			math.Float64bits(x.XMM) != math.Float64bits(y.XMM) || math.Float64bits(x.YMM) != math.Float64bits(y.YMM) {
			return false
		}
	}
	return true
}

// slackTol bounds the gap between the optimizer's slack and the Elmore
// re-analysis of its placement, picoseconds, relative to the slack's size:
// the two sum the same terms in different orders.
const slackTol = 1e-9

// reanalyze rebuilds a served answer on the benchmark's own worked tree
// and checks it against elmore.Analyze and noise.Analyze: the reported
// buffer count, noise violations, worst noise, worst delay and slack must
// be what the placement actually achieves.
func reanalyze(t *rctree.Tree, a server.SolveResponse, lib *buffers.Library, p noise.Params) error {
	if a.NumBuffers != len(a.Buffers) {
		return fmt.Errorf("num_buffers %d but %d placements", a.NumBuffers, len(a.Buffers))
	}
	assign := make(map[rctree.NodeID]buffers.Buffer, len(a.Buffers))
	for _, b := range a.Buffers {
		v := rctree.NodeID(b.Node)
		if b.Node < 0 || b.Node >= t.Len() || !t.Node(v).BufferOK {
			return fmt.Errorf("buffer at node %d, which is no buffer site", b.Node)
		}
		buf, ok := lib.ByName(b.Name)
		if !ok {
			return fmt.Errorf("buffer %q is not in the library", b.Name)
		}
		n := t.Node(v)
		if b.XMM != n.X*1e3 || b.YMM != n.Y*1e3 {
			return fmt.Errorf("buffer at node %d placed at (%g, %g) mm, node is at (%g, %g)", b.Node, b.XMM, b.YMM, n.X*1e3, n.Y*1e3)
		}
		if _, dup := assign[v]; dup {
			return fmt.Errorf("two buffers at node %d", b.Node)
		}
		assign[v] = buf
	}
	nz := noise.Analyze(t, assign, p)
	tm := elmore.Analyze(t, assign)
	switch {
	case len(nz.Violations) != a.NoiseViolations:
		return fmt.Errorf("noise_violations %d, re-analysis finds %d", a.NoiseViolations, len(nz.Violations))
	case math.Float64bits(nz.MaxNoise) != math.Float64bits(a.MaxNoiseV):
		return fmt.Errorf("max_noise_v %v, re-analysis finds %v", a.MaxNoiseV, nz.MaxNoise)
	case math.Float64bits(tm.MaxDelay*1e12) != math.Float64bits(a.MaxDelayPS):
		return fmt.Errorf("max_delay_ps %v, re-analysis finds %v", a.MaxDelayPS, tm.MaxDelay*1e12)
	case math.Abs(tm.WorstSlack*1e12-a.SlackPS) > slackTol*math.Max(1, math.Abs(a.SlackPS)):
		return fmt.Errorf("slack_ps %v, re-analysis finds %v", a.SlackPS, tm.WorstSlack*1e12)
	}
	return nil
}

// digest hashes answers in stream order: buffer counts, slack bits and
// placements.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(a server.SolveResponse) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	put(uint64(a.NumBuffers))
	put(math.Float64bits(a.SlackPS))
	for _, p := range a.Buffers {
		put(uint64(p.Node))
		d.h.Write([]byte(p.Name))
		d.h.Write([]byte{0})
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// checkReport is the outcome of checking a run's answers.
type checkReport struct {
	failed    map[int]string // outcome index -> why it is wrong
	digest    string
	allocs    float64 // heap allocations per reference solve
	resolved  int     // reference re-solves run
	verdicts  int     // infeasible verdicts confirmed by the reference
	reference error   // a reference solve that could not run at all
}

func (c *checkReport) fail(i int, format string, args ...any) {
	if _, ok := c.failed[i]; !ok {
		c.failed[i] = fmt.Sprintf(format, args...)
	}
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sampleIndexes draws n distinct stream indexes below limit.
func sampleIndexes(seed int64, salt string, limit, n int) []int {
	r := rand.New(rand.NewSource(subSeed(seed, salt, 0)))
	p := r.Perm(limit)
	if n > limit {
		n = limit
	}
	s := p[:n]
	sort.Ints(s)
	return s
}

// errorClass extracts the guard class of an error response body.
func errorClass(body []byte) string {
	var e server.ErrorResponse
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Class
}

// checkSolve checks a /solve workload: every answer re-analysed on the
// benchmark's own tree, the stream prefix [0, digestN) digested, and a
// seeded sample of it re-solved in process with core.Solve, which must
// match the served answer bit for bit.
func checkSolve(ctx context.Context, in *solveInputs, outs []outcome, seed int64, salt string, digestN, sampleN int) *checkReport {
	rep := &checkReport{failed: map[int]string{}}
	lib, params := benchLibrary(), benchParams()

	byIdx := make(map[int]int, len(outs))
	for k, o := range outs {
		byIdx[o.idx] = k
	}
	// Worked trees of the base nets; an epoch changes only the driver.
	base := make([]*rctree.Tree, len(in.nets))
	for k, o := range outs {
		if o.err != "" {
			// A refusal stands only as the reference's own verdict.
			if errorClass(o.body) == "infeasible" {
				if t, err := workedTree(in.netText(o.idx), in.segLen); err == nil {
					_, err = core.Solve(ctx, t, lib, params, core.Options{Budget: guard.New(ctx)})
					if errors.Is(err, core.ErrNoiseUnfixable) {
						rep.verdicts++
						continue
					}
				}
			}
			rep.fail(k, "request %d: %s", o.idx, o.err)
			continue
		}
		b, e := in.item(o.idx)
		if base[b] == nil {
			t, err := workedTree(in.nets[b].text, in.segLen)
			if err != nil {
				rep.fail(k, "benchmark cannot rebuild net: %v", err)
				continue
			}
			base[b] = t
		}
		t := base[b].Clone()
		t.DriverResistance = in.nets[b].epochR(e)
		if err := reanalyze(t, *o.answer, lib, params); err != nil {
			rep.fail(k, "request %d: %v", o.idx, err)
		}
	}
	d := newDigest()
	for i := 0; i < digestN; i++ {
		k, ok := byIdx[i]
		if !ok {
			rep.reference = fmt.Errorf("request %d of the digested prefix was never answered; run longer", i)
			return rep
		}
		d.add(*outs[k].answer)
	}
	rep.digest = d.sum()

	var allocs uint64
	for _, i := range sampleIndexes(seed, salt+"/sample", digestN, sampleN) {
		k := byIdx[i]
		o := outs[k]
		if o.err != "" {
			continue
		}
		var env server.Envelope
		if err := json.Unmarshal(in.body(i), &env); err != nil {
			rep.reference = fmt.Errorf("request %d body: %w", i, err)
			return rep
		}
		t, err := netfmt.Read(strings.NewReader(env.Net))
		if err != nil {
			rep.reference = fmt.Errorf("request %d net: %w", i, err)
			return rep
		}
		work := t.Clone()
		if err := segmentTree(work, in.segLen); err != nil {
			rep.reference = err
			return rep
		}
		m0 := mallocs()
		res, err := core.Solve(ctx, work, lib, params, core.Options{Budget: guard.New(ctx)})
		allocs += mallocs() - m0
		rep.resolved++
		if err != nil {
			rep.fail(k, "request %d: reference solve failed: %v", i, err)
		} else {
			want := answerFrom(t.Node(t.Root()).Name, res.Tier.String(), res.Result,
				noise.Analyze(res.Tree, res.Buffers, params), elmore.Analyze(res.Tree, res.Buffers))
			if !sameAnswer(want, *o.answer) {
				rep.fail(k, "request %d: served answer differs from the in-process core.Solve", i)
			}
		}
	}
	rep.allocs = ratio(float64(allocs), float64(rep.resolved))
	return rep
}

// checkEco checks an /solve/delta workload. Each session's edits are
// replayed in order on the benchmark's replica of its worked tree; every
// answer is re-analysed on the replica as of its edit, its reuse ledger
// must close, and a seeded sample of (session, step) pairs is re-solved
// from scratch with core.Optimize after the same edits, which must match
// bit for bit. The digest covers steps [0, digestSteps) of every session.
func checkEco(ctx context.Context, sessions []*ecoSession, outs []outcome, seed int64, digestSteps, sampleN int) *checkReport {
	rep := &checkReport{failed: map[int]string{}}
	lib, params := benchLibrary(), benchParams()

	bySession := make([][]int, len(sessions))
	for k, o := range outs {
		bySession[o.session] = append(bySession[o.session], k)
	}
	type pair struct{ s, j int }
	sample := map[pair]bool{}
	for _, x := range sampleIndexes(seed, "eco-fresh/sample", len(sessions)*digestSteps, sampleN) {
		sample[pair{x / digestSteps, x % digestSteps}] = true
	}

	d := newDigest()
	var allocs uint64
	for s, sess := range sessions {
		ks := bySession[s]
		sort.Slice(ks, func(a, b int) bool { return outs[ks[a]].idx < outs[ks[b]].idx })
		if len(ks) < digestSteps {
			rep.reference = fmt.Errorf("session %d answered %d deltas, fewer than the %d digested; run longer", s, len(ks), digestSteps)
			return rep
		}
		t := sess.net.replica.Clone()
		for j, k := range ks {
			o := outs[k]
			if o.idx != j {
				rep.reference = fmt.Errorf("session %d: delta %d missing from the outcomes", s, j)
				return rep
			}
			applyEdit(t, sess.edits[j])
			if j < digestSteps {
				d.add(*o.answer)
			}
			if o.err != "" {
				if errorClass(o.body) == "infeasible" {
					_, err := core.Optimize(ctx, core.Problem{Tree: t.Clone(), Library: lib, Params: params,
						Objective: core.MinBuffersNoise}, core.Options{Budget: guard.New(ctx)})
					if errors.Is(err, core.ErrNoiseUnfixable) {
						rep.verdicts++
						continue
					}
				}
				rep.fail(k, "session %d delta %d: %s", s, j, o.err)
				continue
			}
			if o.nodes != t.Len() {
				rep.fail(k, "session %d delta %d: server tree has %d nodes, replica %d", s, j, o.nodes, t.Len())
			}
			if o.reused+o.resolved != o.lookups {
				rep.fail(k, "session %d delta %d: reused %d + resolved %d != lookups %d", s, j, o.reused, o.resolved, o.lookups)
			}
			if err := reanalyze(t, *o.answer, lib, params); err != nil {
				rep.fail(k, "session %d delta %d: %v", s, j, err)
			}
			if !sample[pair{s, j}] {
				continue
			}
			m0 := mallocs()
			res, err := core.Optimize(ctx, core.Problem{Tree: t.Clone(), Library: lib, Params: params,
				Objective: core.MinBuffersNoise}, core.Options{Budget: guard.New(ctx)})
			allocs += mallocs() - m0
			rep.resolved++
			if err != nil {
				rep.fail(k, "session %d delta %d: reference solve failed: %v", s, j, err)
				continue
			}
			want := answerFrom(o.answer.Net, core.TierExact.String(), res,
				noise.Analyze(res.Tree, res.Buffers, params), elmore.Analyze(res.Tree, res.Buffers))
			if !sameAnswer(want, *o.answer) {
				rep.fail(k, "session %d delta %d: served answer differs from a from-scratch core.Optimize", s, j)
			}
		}
	}
	rep.digest = d.sum()
	rep.allocs = ratio(float64(allocs), float64(rep.resolved))
	return rep
}

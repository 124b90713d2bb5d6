package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// Span names. Each names the layer whose public call it times; parents
// are given in spanParent.
const (
	spanRoundTrip = "http.roundtrip"
	spanHandler   = "server.handler"
	spanMirror    = "mirror"
	spanNetfmt    = "netfmt.read"
	spanCacheKey  = "cache.key"
	spanCacheDo   = "cache.do"
	spanSegment   = "segment"
	spanCore      = "core.solve"
	spanDelta     = "core.delta"
	spanNoise     = "analysis.noise"
	spanElmore    = "analysis.elmore"
	spanEncode    = "json.encode"
)

var spanParent = map[string]string{
	spanHandler:  spanRoundTrip,
	spanNetfmt:   spanMirror,
	spanCacheKey: spanMirror,
	spanCacheDo:  spanMirror,
	spanSegment:  spanCacheDo,
	spanCore:     spanCacheDo,
	spanDelta:    spanMirror,
	spanNoise:    spanMirror,
	spanElmore:   spanMirror,
	spanEncode:   spanMirror,
}

// span is one timed call, linked to its request by Req.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(req int64, name string, start, end time.Time) {
	s := span{Req: req, Name: name, Parent: spanParent[name],
		Start: start.Sub(r.epoch).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap times the server's own handler, in process, for requests that
// carry a benchmark request id.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		id, _ := strconv.ParseInt(q.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, q)
		if id > 0 {
			r.add(id, spanHandler, start, time.Now())
		}
	})
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirror replays the /solve and /solve/delta handler path in process
// with public calls, one span per layer: netfmt.ReadLimited,
// core.SolveCacheKey + SolveCache.Do (segment.ByLength + InsertBelow +
// core.Solve on a miss) or core.Delta, noise.Analyze + elmore.Analyze,
// and json.Marshal of the response. Its cache is configured like the
// server's, so it sees the same hits and misses.
type mirror struct {
	rec    *recorder
	cache  *core.SolveCache
	lib    *buffers.Library
	params noise.Params

	segRuns, segNodes atomic.Int64 // segmentations run and the nodes they output
}

func newMirror(rec *recorder) *mirror {
	cfg := bufferdConfig()
	return &mirror{
		rec:    rec,
		cache:  core.NewSolveCache(cfg.CacheEntries, cfg.CacheBytes, "mirror"),
		lib:    benchLibrary(),
		params: benchParams(),
	}
}

// Solver defaults of /solve: the Section V physics and buffer library.
func benchParams() noise.Params      { return noise.Params{CouplingRatio: 0.7, Slope: 1.8 / 0.25e-9} }
func benchLibrary() *buffers.Library { return buffers.DefaultLibrary(0.8) }

// solve mirrors one /solve request. It returns the answer the handler
// would send, for comparison with the served one.
func (m *mirror) solve(ctx context.Context, id int64, text string, segLen float64) (server.SolveResponse, error) {
	t0 := time.Now()
	tree, err := netfmt.ReadLimited(strings.NewReader(text), netfmt.Limits{})
	if err == nil {
		err = tree.Validate()
	}
	t1 := time.Now()
	m.rec.add(id, spanNetfmt, t0, t1)
	if err != nil {
		return server.SolveResponse{}, err
	}
	p := core.Problem{Tree: tree, Library: m.lib, Params: m.params, Objective: core.MinBuffersNoise}
	key := core.SolveCacheKey(p, core.Options{Budget: &guard.Budget{}}) +
		"/seglen:" + strconv.FormatUint(math.Float64bits(segLen), 16)
	t2 := time.Now()
	m.rec.add(id, spanCacheKey, t1, t2)
	res, _, err := m.cache.Do(ctx, key, func() (*core.SolveResult, bool, error) {
		s0 := time.Now()
		work := tree.Clone()
		err := segmentTree(work, segLen)
		s1 := time.Now()
		m.rec.add(id, spanSegment, s0, s1)
		if err != nil {
			return nil, false, err
		}
		if id > 0 { // traced requests, not the warm-up
			m.segRuns.Add(1)
			m.segNodes.Add(int64(work.Len()))
		}
		r, err := core.Solve(ctx, work, m.lib, m.params, core.Options{Budget: guard.New(ctx)})
		m.rec.add(id, spanCore, s1, time.Now())
		if err != nil {
			return nil, false, err
		}
		return r, core.Cacheable(r), nil
	})
	m.rec.add(id, spanCacheDo, t2, time.Now())
	if err != nil {
		return server.SolveResponse{}, err
	}
	return m.respond(id, tree.Node(tree.Root()).Name, res.Tier.String(), res.Result)
}

// delta mirrors one /solve/delta re-solve on the benchmark's own session.
func (m *mirror) delta(ctx context.Context, id int64, s *core.Session, name string, edits []server.EditEnvelope) (server.SolveResponse, error) {
	ce := make([]core.Edit, len(edits))
	for i, e := range edits {
		op, err := core.ParseEditOp(e.Op)
		if err != nil {
			return server.SolveResponse{}, err
		}
		ce[i] = core.Edit{Op: op, Node: rctree.NodeID(e.Node)}
		if e.Value != nil {
			ce[i].Value = *e.Value
		}
		if e.Wire != nil {
			ce[i].Wire = rctree.Wire{R: e.Wire.R, C: e.Wire.C, Length: e.Wire.Length}
		}
	}
	t0 := time.Now()
	res, err := core.Delta(ctx, s, ce, core.Options{Budget: guard.New(ctx)})
	m.rec.add(id, spanDelta, t0, time.Now())
	if err != nil {
		return server.SolveResponse{}, err
	}
	return m.respond(id, name, core.TierExact.String(), res.Result)
}

// respond runs the post-solve analysis and the response encode.
func (m *mirror) respond(id int64, name, tier string, res *core.Result) (server.SolveResponse, error) {
	a0 := time.Now()
	nz := noise.Analyze(res.Tree, res.Buffers, m.params)
	a1 := time.Now()
	tm := elmore.Analyze(res.Tree, res.Buffers)
	a2 := time.Now()
	m.rec.add(id, spanNoise, a0, a1)
	m.rec.add(id, spanElmore, a1, a2)
	resp := answerFrom(name, tier, res, nz, tm)
	_, err := json.Marshal(resp)
	m.rec.add(id, spanEncode, a2, time.Now())
	return resp, err
}

// answerFrom shapes a result the way the /solve handler does.
func answerFrom(name, tier string, res *core.Result, nz *noise.Result, tm *elmore.Result) server.SolveResponse {
	resp := server.SolveResponse{
		Net:             name,
		Tier:            tier,
		Buffers:         []server.BufferPlacement{},
		NumBuffers:      res.NumBuffers(),
		SlackPS:         res.Slack * 1e12,
		MaxDelayPS:      tm.MaxDelay * 1e12,
		NoiseViolations: len(nz.Violations),
		MaxNoiseV:       nz.MaxNoise,
	}
	ids := make([]rctree.NodeID, 0, len(res.Buffers))
	for v := range res.Buffers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		n := res.Tree.Node(v)
		resp.Buffers = append(resp.Buffers, server.BufferPlacement{
			Node: int(v), Name: res.Buffers[v].Name, XMM: n.X * 1e3, YMM: n.Y * 1e3,
		})
	}
	return resp
}

// layerTimes are one traced request's per-layer times, nanoseconds.
type layerTimes struct {
	roundTrip, handler                 float64
	netfmt, cacheKey, cacheDo, segment float64
	core, delta, noise, elmore, encode float64
	hasHandler, miss                   bool
}

// perRequest folds the recorded spans by request id.
func (r *recorder) perRequest() map[int64]*layerTimes {
	out := map[int64]*layerTimes{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		lt := out[s.Req]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Req] = lt
		}
		d := float64(s.Dur)
		switch s.Name {
		case spanRoundTrip:
			lt.roundTrip += d
		case spanHandler:
			lt.handler += d
			lt.hasHandler = true
		case spanNetfmt:
			lt.netfmt += d
		case spanCacheKey:
			lt.cacheKey += d
		case spanCacheDo:
			lt.cacheDo += d
		case spanSegment:
			lt.segment += d
			lt.miss = true
		case spanCore:
			lt.core += d
		case spanDelta:
			lt.delta += d
		case spanNoise:
			lt.noise += d
		case spanElmore:
			lt.elmore += d
		case spanEncode:
			lt.encode += d
		}
	}
	return out
}

// mirrored is the in-handler time the mirror accounts for.
func (lt *layerTimes) mirrored() float64 {
	return lt.netfmt + lt.cacheKey + lt.cacheDo + lt.delta + lt.noise + lt.elmore + lt.encode
}

// layerMetrics turns the traced requests into per-layer medians and
// self-time shares. A layer's self time is its span minus its children:
// the loopback hop is the round trip minus the in-process handler; the
// server's own glue (admission, envelope decode, key and response
// build) is the handler minus the layers the mirror times below it;
// the cache's self time is the key plus Do minus the fill's segment and
// core spans.
func layerMetrics(reqs map[int64]*layerTimes, m metrics) {
	var (
		rt, lb, hd, glue, nf, key, hit, seg, cr, dl, nz, el, enc []float64
		sum                                                      [9]float64
	)
	for _, lt := range reqs {
		if !lt.hasHandler || lt.roundTrip == 0 {
			continue
		}
		g := lt.handler - lt.mirrored()
		rt = append(rt, lt.roundTrip)
		lb = append(lb, lt.roundTrip-lt.handler)
		hd = append(hd, lt.handler)
		glue = append(glue, g)
		nz = append(nz, lt.noise)
		el = append(el, lt.elmore)
		enc = append(enc, lt.encode)
		if lt.delta > 0 {
			dl = append(dl, lt.delta)
		} else {
			nf = append(nf, lt.netfmt)
			key = append(key, lt.cacheKey)
			if lt.miss {
				seg = append(seg, lt.segment)
				cr = append(cr, lt.core)
			} else {
				hit = append(hit, lt.cacheDo)
			}
		}
		sum[0] += lt.roundTrip
		sum[1] += lt.roundTrip - lt.handler
		sum[2] += g
		sum[3] += lt.netfmt
		sum[4] += lt.segment
		sum[5] += lt.cacheKey + lt.cacheDo - lt.segment - lt.core
		sum[6] += lt.core + lt.delta
		sum[7] += lt.noise + lt.elmore
		sum[8] += lt.encode
	}
	const ms, us = 1e6, 1e3
	m.set("http.roundtrip_ms", median(rt)/ms, "ms")
	m.set("http.loopback_ms", median(lb)/ms, "ms")
	m.set("server.handler_ms", median(hd)/ms, "ms")
	m.set("server.glue_ms", median(glue)/ms, "ms")
	m.set("netfmt.read_us", median(nf)/us, "us")
	m.set("segment.us", median(seg)/us, "us")
	m.set("cache.key_us", median(key)/us, "us")
	m.set("cache.hit_us", median(hit)/us, "us")
	m.set("core.solve_ms", median(cr)/ms, "ms")
	m.set("eco.delta_ms", median(dl)/ms, "ms")
	m.set("analysis.noise_us", median(nz)/us, "us")
	m.set("analysis.elmore_us", median(el)/us, "us")
	m.set("json.encode_us", median(enc)/us, "us")
	for i, layer := range []string{"http", "server", "netfmt", "segment", "cache", "core", "analysis", "json"} {
		m.set("share."+layer, ratio(sum[i+1], sum[0]), "ratio")
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[len(s)/2]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spansPath is where a traced run writes its spans.
func spansPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
}

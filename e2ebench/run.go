package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/obs"
	"buffopt/internal/server"
)

// sizes are a run's input sizes; tests shrink them.
type sizes struct {
	coldPool    int // base nets of serve-cold, cycled in epochs
	largePool   int // Table I tail nets of serve-large, cycled in epochs
	hotSet      int // serve-hot working set
	ecoSessions int // eco-fresh sessions, one tail net each
	digestN     int // stream prefix every /solve run must answer and digest
	digestSteps int // deltas per eco session the digest covers
	sampleN     int // reference re-solves per run
	setupReps   int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	coldPool:    4096,
	largePool:   512,
	hotSet:      128,
	ecoSessions: 8,
	digestN:     64,
	digestSteps: 8,
	sampleN:     24,
	setupReps:   3,
}

// config is one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	spansDir string // where a traced run writes its spans
}

// workload describes one traffic mix: its closed-loop client count and
// whether it drives /solve/delta sessions rather than /solve.
type workload struct {
	clients int
	eco     bool
}

var workloads = map[string]workload{
	"serve-cold":  {clients: 2},
	"serve-hot":   {clients: 2},
	"serve-large": {clients: 1},
	"eco-fresh":   {clients: 2, eco: true},
}

// request is the fixed-size record every request leaves, so the run's
// own bookkeeping stays small and constant per request beside the server
// it measures.
type request struct {
	lat     time.Duration
	done    time.Duration // completion, from the start of its phase
	elapsed float32       // the server's elapsed_ms
	ok      bool          // a 200 with a parseable answer
}

// outcome is a request kept for checking: every failure, every answer
// that differs from the last one for its net, and every answer in the
// digested prefix of the stream. An answer equal to the one kept for its
// net is checked through it.
type outcome struct {
	idx      int // stream index (/solve) or step within its session (eco)
	session  int
	err      string                // empty for a 200 with a parseable body
	body     []byte                // the response body of a failed request
	answer   *server.SolveResponse // noAnswer on failure
	nodes    int
	reused   int64
	resolved int64
	lookups  int64
}

// clientLog is what one closed-loop client, or a merged phase, recorded.
type clientLog struct {
	reqs     []request
	outs     []outcome
	recv     int64 // response body bytes
	netBytes int64 // netfmt text bytes in the requests
}

func (l *clientLog) merge(o clientLog) {
	l.reqs = append(l.reqs, o.reqs...)
	l.outs = append(l.outs, o.outs...)
	l.recv += o.recv
	l.netBytes += o.netBytes
}

// ecoSession is one /solve/delta session and its edit stream.
type ecoSession struct {
	net    *ecoNet
	id     string
	name   string
	gen    *editGen
	edits  []server.EditEnvelope // edits[j] was sent as delta j
	mirror *core.Session         // the traced run's in-process twin
	synced int                   // edits the twin has applied
}

// The per-session memo bounds server.Config defaults to, which the traced
// mirror's sessions copy.
const (
	sessionMemoEntries = 8192
	sessionMemoBytes   = 16 << 20
)

// state is a set-up run: inputs, a serving daemon, warm caches or open
// sessions.
type state struct {
	w    workload
	d    *daemon
	cl   *http.Client
	rec  *recorder
	mir  *mirror
	in   *solveInputs
	next atomic.Int64 // next /solve stream index
	eco  []*ecoSession
	ids  atomic.Int64 // traced request ids

	digestN int // /solve stream prefix kept whole for the answer digest
}

func (s *state) stop() error {
	s.cl.CloseIdleConnections()
	return s.d.stop()
}

// setup generates the inputs from the seed, starts the server and warms
// it: one pass over the serve-hot working set, or every eco session
// created with its full first solve.
func setup(ctx context.Context, cfg config) (*state, error) {
	w := workloads[cfg.workload]
	st := &state{w: w, cl: newClient(w.clients), digestN: cfg.sizes.digestN}
	if cfg.trace {
		st.rec = newRecorder()
		st.mir = newMirror(st.rec)
	}
	var err error
	if w.eco {
		var nets []*ecoNet
		nets, err = newEcoInputs(ecoCorpusSeed, cfg.sizes.ecoSessions)
		for i, n := range nets {
			st.eco = append(st.eco, &ecoSession{net: n, gen: newEditGen(cfg.seed, i, n)})
		}
	} else {
		st.in, err = newInputs(cfg)
	}
	if err != nil {
		return nil, err
	}
	if st.d, err = startDaemon(st.rec); err != nil {
		return nil, err
	}
	if err := st.warm(ctx); err != nil {
		return nil, errors.Join(err, st.stop())
	}
	return st, nil
}

// newInputs builds the request stream of a /solve workload.
func newInputs(cfg config) (*solveInputs, error) {
	switch cfg.workload {
	case "serve-cold":
		return newDistinctInputs(cfg.seed, cfg.workload, cfg.sizes.coldPool, defaultSegLen, nil)
	case "serve-large":
		return newLargeInputs(cfg.seed, cfg.sizes.largePool)
	case "serve-hot":
		return newHotInputs(cfg.seed, cfg.sizes.hotSet)
	}
	return nil, fmt.Errorf("%s posts no /solve stream", cfg.workload)
}

func (s *state) warm(ctx context.Context) error {
	if s.in != nil && s.in.zipf != nil {
		for b := range s.in.nets {
			if code, resp, err := post(s.cl, s.d.url+"/solve", s.in.bodyOf(b, 0), 0); err != nil || code != http.StatusOK {
				return fmt.Errorf("warm-up of net %d: status %d, %v: %s", b, code, err, resp)
			}
			if s.mir != nil {
				if _, err := s.mir.solve(ctx, 0, s.in.nets[b].text, s.in.segLen); err != nil {
					return fmt.Errorf("warm-up of the traced mirror: %w", err)
				}
			}
		}
	}
	for i, e := range s.eco {
		code, resp, err := post(s.cl, s.d.url+"/solve/delta", e.net.create, 0)
		var dr server.DeltaResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(resp, &dr)
		}
		if err != nil || code != http.StatusOK || !dr.Created {
			return fmt.Errorf("create session %d: status %d, %v: %s", i, code, err, resp)
		}
		e.id, e.name = dr.SessionID, dr.Net
		if s.mir != nil {
			sess, err := core.NewSession(core.Problem{Tree: e.net.replica, Library: s.mir.lib, Params: s.mir.params,
				Objective: core.MinBuffersNoise}, core.SessionConfig{MemoEntries: sessionMemoEntries,
				MemoBytes: sessionMemoBytes, Namespace: "mirror.memo"})
			if err != nil {
				return fmt.Errorf("mirror session %d: %w", i, err)
			}
			if _, err := core.Delta(ctx, sess, nil, core.Options{}); err != nil {
				return fmt.Errorf("mirror session %d first solve: %w", i, err)
			}
			e.mirror = sess
		}
	}
	return nil
}

// phase is one measured window.
type phase struct {
	clientLog
	wall     time.Duration
	cpu      time.Duration
	cpuMarks []time.Duration // process CPU at each sub-window boundary
	wallMark []time.Duration // when each mark was taken, from the phase start
	alloc    uint64
	gcs      uint32
	pause    uint64
	peakRSS  float64          // MiB, set-up and serving, before any checking
	counters map[string]int64 // obs counter deltas over the window
	gauges   map[string]int64 // obs gauges at its end
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs the closed loop for d against url, traced when the state
// carries a recorder and traced is set.
func (s *state) measure(ctx context.Context, url string, d time.Duration, traced bool) phase {
	var ms0, ms1 runtime.MemStats
	snap0 := obs.Default().Snapshot()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()

	// The sampler marks process CPU once a second, so the phase can be
	// read as per-second sub-windows.
	marks, at := []time.Duration{cpu0}, []time.Duration{0}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tk := time.NewTicker(subWindow)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				marks, at = append(marks, cpuTime()), append(at, time.Since(t0))
			case <-stop:
				return
			}
		}
	}()

	deadline := t0.Add(d)
	per := make([]clientLog, s.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if s.eco != nil {
				per[c] = s.driveEco(ctx, c, url, t0, deadline, traced)
			} else {
				per[c] = s.driveSolve(ctx, url, t0, deadline, traced)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled

	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0, cpuMarks: marks, wallMark: at, peakRSS: peakRSSMB()}
	runtime.ReadMemStats(&ms1)
	snap1 := obs.Default().Snapshot()
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	p.pause = ms1.PauseTotalNs - ms0.PauseTotalNs
	p.counters = map[string]int64{}
	for k, v := range snap1.Counters {
		if dv := v - snap0.Counters[k]; dv != 0 {
			p.counters[k] = dv
		}
	}
	p.gauges = snap1.Gauges
	for _, l := range per {
		p.merge(l)
	}
	return p
}

// driveSolve is one closed-loop /solve client: it posts the next stream
// index, waits for the answer, and repeats until the deadline.
func (s *state) driveSolve(ctx context.Context, url string, start, deadline time.Time, traced bool) clientLog {
	var l clientLog
	last := map[int]*server.SolveResponse{}
	for time.Now().Before(deadline) {
		i := int(s.next.Add(1) - 1)
		body := s.in.body(i)
		var id int64
		if traced {
			id = s.ids.Add(1)
		}
		t0 := time.Now()
		code, resp, err := post(s.cl, url+"/solve", body, id)
		t1 := time.Now()
		r := request{lat: t1.Sub(t0), done: t1.Sub(start)}
		o := outcome{idx: i, answer: noAnswer}
		var ans server.SolveResponse
		keep := i < s.digestN
		if r.ok = o.decode(code, resp, err, &ans); r.ok {
			r.elapsed = float32(ans.ElapsedMS)
			b, _ := s.in.item(i)
			if prev := last[b]; prev != nil && sameAnswer(*prev, ans) {
				o.answer = prev
			} else {
				o.answer, last[b], keep = &ans, &ans, true
			}
		}
		if traced {
			s.rec.add(id, spanRoundTrip, t0, t1)
			text := s.in.netText(i)
			l.netBytes += int64(len(text))
			if r.ok {
				m0 := time.Now()
				want, err := s.mir.solve(ctx, id, text, s.in.segLen)
				s.rec.add(id, spanMirror, m0, time.Now())
				if err != nil || !sameAnswer(want, *o.answer) {
					o.err = fmt.Sprintf("in-process mirror disagrees with the served answer (%v)", err)
					r.ok = false
				}
			}
		}
		l.reqs = append(l.reqs, r)
		l.recv += int64(len(resp))
		if keep || !r.ok {
			l.outs = append(l.outs, o)
		}
	}
	return l
}

// driveEco is one closed-loop /solve/delta client. Client c owns the
// sessions congruent to c and edits them round robin, one fresh edit per
// delta. Every delta is kept for checking: each session's answers are
// replayed in order.
func (s *state) driveEco(ctx context.Context, c int, url string, start, deadline time.Time, traced bool) clientLog {
	var mine []int
	for i := c; i < len(s.eco); i += s.w.clients {
		mine = append(mine, i)
	}
	var l clientLog
	for k := 0; time.Now().Before(deadline); k++ {
		si := mine[k%len(mine)]
		sess := s.eco[si]
		e := sess.gen.next()
		j := len(sess.edits)
		sess.edits = append(sess.edits, e)
		o := outcome{idx: j, session: si, answer: noAnswer}
		body, err := json.Marshal(server.Envelope{V: intPtr(2), Session: &server.SessionEnvelope{ID: sess.id},
			Edits: []server.EditEnvelope{e}})
		if err != nil {
			o.err = err.Error()
			l.reqs = append(l.reqs, request{})
			l.outs = append(l.outs, o)
			continue
		}
		var id int64
		if traced {
			id = s.ids.Add(1)
		}
		t0 := time.Now()
		code, resp, err := post(s.cl, url+"/solve/delta", body, id)
		t1 := time.Now()
		r := request{lat: t1.Sub(t0), done: t1.Sub(start)}
		var dr server.DeltaResponse
		if r.ok = o.decode(code, resp, err, &dr); r.ok {
			o.answer, r.elapsed = &dr.SolveResponse, float32(dr.ElapsedMS)
			o.nodes, o.reused, o.resolved, o.lookups = dr.Nodes, dr.Reused, dr.Resolved, dr.Lookups
		}
		if traced {
			s.rec.add(id, spanRoundTrip, t0, t1)
			sess.synced++
			m0 := time.Now()
			want, err := s.mir.delta(ctx, id, sess.mirror, sess.name, []server.EditEnvelope{e})
			s.rec.add(id, spanMirror, m0, time.Now())
			if r.ok && (err != nil || !sameAnswer(want, *o.answer)) {
				o.err = fmt.Sprintf("in-process mirror disagrees with the served answer (%v)", err)
				r.ok = false
			}
		}
		l.reqs = append(l.reqs, r)
		l.recv += int64(len(resp))
		l.outs = append(l.outs, o)
	}
	return l
}

// syncMirror brings every traced twin session up to the edits its
// session took while untraced, outside any timed window.
func (s *state) syncMirror(ctx context.Context) error {
	for i, e := range s.eco {
		if e.synced == len(e.edits) {
			continue
		}
		if _, err := s.mir.delta(ctx, 0, e.mirror, e.name, e.edits[e.synced:]); err != nil {
			return fmt.Errorf("sync mirror session %d: %w", i, err)
		}
		e.synced = len(e.edits)
	}
	return nil
}

// noAnswer stands in for the answer of a failed request.
var noAnswer = &server.SolveResponse{}

// decode classifies one response and parses a 200 body into v, reporting
// whether it did.
func (o *outcome) decode(code int, resp []byte, err error, v any) bool {
	switch {
	case err != nil:
		o.err = err.Error()
	case code != http.StatusOK:
		o.err = fmt.Sprintf("status %d: %.200s", code, resp)
		o.body = resp
	default:
		if err := json.Unmarshal(resp, v); err != nil {
			o.err = "unparseable answer: " + err.Error()
			return false
		}
		return true
	}
	return false
}

// subWindow is the length of the sub-windows whose medians give the
// throughput and CPU metrics: a neighbour's burst on a shared machine
// spoils a second or two, not the run.
const subWindow = time.Second

// perSecond splits a phase into its whole sub-windows and returns each
// one's completed requests per second and process CPU ms per completed
// request.
func (p phase) perSecond() (rps, cpuMS []float64) {
	n := len(p.cpuMarks) - 1
	done := make([]float64, n)
	for _, r := range p.reqs {
		k := sort.Search(n, func(k int) bool { return p.wallMark[k+1] > r.done })
		if r.ok && k < n {
			done[k]++
		}
	}
	for k := 0; k < n; k++ {
		rps = append(rps, done[k]/(p.wallMark[k+1]-p.wallMark[k]).Seconds())
		if done[k] > 0 {
			cpuMS = append(cpuMS, float64((p.cpuMarks[k+1]-p.cpuMarks[k]).Nanoseconds())/1e6/done[k])
		}
	}
	return rps, cpuMS
}

// latencies returns the sorted latencies of a phase, ms; failed requests
// sort last, as having missed any limit.
func latencies(reqs []request) []float64 {
	v := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		l := float64(r.lat.Nanoseconds()) / 1e6
		if !r.ok {
			l = float64(time.Hour.Milliseconds())
		}
		v = append(v, l)
	}
	sort.Float64s(v)
	return v
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"

	"buffopt/internal/netfmt"
	"buffopt/internal/netgen"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/server"
)

// Segmenting lengths: the server default (what /solve uses when the
// envelope sets none), and the fine pitch of the serve-large and
// eco-fresh workloads, which turns a Table I tail net into ~100–140
// candidate nodes.
const (
	defaultSegLen = 0.5e-3
	fineSegLen    = 0.1e-3
	// tailSinks is the sink count from which a net belongs to the Table I
	// tail.
	tailSinks = 15
	// chunkNets is how many nets one netgen call selects. Every chunk runs
	// netgen's own Table I selection (largest total capacitance out of a
	// pool twice the size), so the suite keeps netgen's shape however many
	// chunks a workload draws.
	chunkNets = 256
	// epochStep scales the driver resistance of a base net each time a
	// distinct-net stream wraps around its base pool: request i of a pool
	// of B nets posts base i mod B with R·(1 + epochStep·⌊i/B⌋). Every
	// request is then a net the server has never seen (a new canonical
	// hash), and the stream never runs dry however fast the server gets.
	epochStep = 1e-3
)

// subSeed derives an independent PRNG seed for one stream of one
// workload, so the workloads draw different nets from one --seed.
func subSeed(seed int64, salt string, k int) int64 {
	h := sha256.New()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(k))
	h.Write(b[:])
	h.Write([]byte(salt))
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)) >> 1)
}

// genNets draws want nets accepted by keep from consecutive netgen chunks
// of (seed, salt), generating two chunks at a time. The result depends
// only on its arguments: chunks are concatenated in chunk order.
func genNets(seed int64, salt string, want int, keep func(*rctree.Tree) bool) ([]*rctree.Tree, error) {
	const par = 2
	var out []*rctree.Tree
	for k := 0; len(out) < want; k += par {
		var (
			wg     sync.WaitGroup
			chunks [par][]*rctree.Tree
			errs   [par]error
		)
		for j := 0; j < par; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				cs := subSeed(seed, salt, k+j)
				s, err := netgen.Generate(netgen.Config{Seed: cs, NumNets: chunkNets})
				if err != nil {
					errs[j] = err
					return
				}
				// netgen returns its selection by decreasing capacitance;
				// shuffle it so a prefix is a fair sample of the chunk.
				r := rand.New(rand.NewSource(cs))
				r.Shuffle(len(s.Nets), func(a, b int) { s.Nets[a], s.Nets[b] = s.Nets[b], s.Nets[a] })
				chunks[j] = s.Nets
			}(j)
		}
		wg.Wait()
		for j := 0; j < par; j++ {
			if errs[j] != nil {
				return nil, fmt.Errorf("generate nets: %w", errs[j])
			}
			for _, t := range chunks[j] {
				if keep == nil || keep(t) {
					out = append(out, t)
				}
			}
		}
		if k > 4096 {
			return nil, fmt.Errorf("generate nets: only %d of %d wanted nets after %d chunks", len(out), want, k)
		}
	}
	return out[:want], nil
}

func isTail(t *rctree.Tree) bool { return t.NumSinks() >= tailSinks }

// baseNet is one generated net as the wire carries it. The JSON body is
// kept split around the driver resistance so a request for any epoch is
// two appends and one float format.
type baseNet struct {
	text    string  // netfmt text
	driverR float64 // the driver resistance printed in text
	rAt     int     // offset of the resistance value in text
	rEnd    int     // offset just past it
	head    []byte  // JSON body up to the resistance value
	tail    []byte  // JSON body after it
}

const driverPrefix = "\ndriver r="

// newBaseNet renders t and splits its /solve envelope around the driver
// resistance. extra is appended inside the envelope (the options object).
func newBaseNet(t *rctree.Tree, extra string) (baseNet, error) {
	var buf bytes.Buffer
	if err := netfmt.Write(&buf, t); err != nil {
		return baseNet{}, err
	}
	text := buf.String()
	at := strings.Index(text, driverPrefix)
	if at < 0 {
		return baseNet{}, fmt.Errorf("net text has no driver line")
	}
	at += len(driverPrefix)
	end := at + strings.IndexByte(text[at:], ' ')
	if end < at {
		return baseNet{}, fmt.Errorf("net text driver line is malformed")
	}
	r, err := strconv.ParseFloat(text[at:end], 64)
	if err != nil {
		return baseNet{}, err
	}
	head, err := json.Marshal(text[:at])
	if err != nil {
		return baseNet{}, err
	}
	tail, err := json.Marshal(text[end:])
	if err != nil {
		return baseNet{}, err
	}
	n := baseNet{text: text, driverR: r, rAt: at, rEnd: end}
	n.head = append([]byte(`{"v":2,"net":`), head[:len(head)-1]...)
	n.tail = append(append([]byte(nil), tail[1:]...), extra...)
	n.tail = append(n.tail, '}')
	return n, nil
}

// epochR is the driver resistance of base net n in epoch e.
func (n *baseNet) epochR(e int) float64 {
	if e == 0 {
		return n.driverR
	}
	return n.driverR * (1 + epochStep*float64(e))
}

// solveInputs is the request stream of a /solve workload.
type solveInputs struct {
	nets   []baseNet
	segLen float64
	// zipf, when set, is the seeded stream of net indices the serve-hot
	// workload cycles through; nil means the distinct-net stream.
	zipf []int32
}

// item maps stream index i to its base net and epoch.
func (in *solveInputs) item(i int) (b, e int) {
	if in.zipf != nil {
		return int(in.zipf[i%len(in.zipf)]), 0
	}
	return i % len(in.nets), i / len(in.nets)
}

// body is the exact request body of stream index i.
func (in *solveInputs) body(i int) []byte { return in.bodyOf(in.item(i)) }

// bodyOf is the request body of base net b in epoch e.
func (in *solveInputs) bodyOf(b, e int) []byte {
	n := &in.nets[b]
	buf := make([]byte, 0, len(n.head)+len(n.tail)+24)
	buf = append(buf, n.head...)
	buf = strconv.AppendFloat(buf, n.epochR(e), 'g', -1, 64)
	return append(buf, n.tail...)
}

// netText is the netfmt text the server decodes for stream index i.
func (in *solveInputs) netText(i int) string {
	b, e := in.item(i)
	n := &in.nets[b]
	return n.text[:n.rAt] + strconv.FormatFloat(n.epochR(e), 'g', -1, 64) + n.text[n.rEnd:]
}

// envelopeExtra renders the options object of a /solve body; the server
// default segmenting length is left implicit.
func envelopeExtra(segLen float64) string {
	if segLen == defaultSegLen {
		return ""
	}
	return `,"options":{"seglen":` + strconv.FormatFloat(segLen, 'g', -1, 64) + `}`
}

func buildBaseNets(trees []*rctree.Tree, segLen float64) ([]baseNet, error) {
	nets := make([]baseNet, len(trees))
	extra := envelopeExtra(segLen)
	for i, t := range trees {
		n, err := newBaseNet(t, extra)
		if err != nil {
			return nil, err
		}
		nets[i] = n
	}
	return nets, nil
}

// newDistinctInputs is the serve-cold / serve-large stream: a pool of
// base nets cycled in epochs, so no request repeats a net.
func newDistinctInputs(seed int64, salt string, pool int, segLen float64, keep func(*rctree.Tree) bool) (*solveInputs, error) {
	trees, err := genNets(seed, salt, pool, keep)
	if err != nil {
		return nil, err
	}
	nets, err := buildBaseNets(trees, segLen)
	if err != nil {
		return nil, err
	}
	return &solveInputs{nets: nets, segLen: segLen}, nil
}

// Zipf working set of serve-hot: zipfS is the skew, zipfLen the length of
// the seeded index stream the clients cycle through.
const (
	zipfS   = 1.1
	zipfLen = 1 << 16
)

// newHotInputs is the serve-hot stream: a Zipf draw over a small working
// set of nets. A hit costs in proportion to the net's size (decode,
// clone, analysis, encode), and the Zipf head carries most of the
// traffic, so popularity ranks go to the size-sorted working set in van
// der Corput order (the median net first, then the quartiles, the
// octiles, ...): every prefix of ranks samples the sizes evenly, and the
// run does not hinge on how large the seed's one or two most popular
// nets happen to be. set must be a power of two.
func newHotInputs(seed int64, set int) (*solveInputs, error) {
	if set < 2 || set&(set-1) != 0 {
		return nil, fmt.Errorf("serve-hot working set %d is not a power of two", set)
	}
	trees, err := genNets(seed, "serve-hot", set, nil)
	if err != nil {
		return nil, err
	}
	nets, err := buildBaseNets(trees, defaultSegLen)
	if err != nil {
		return nil, err
	}
	bySize := make([]int, set)
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(nets[bySize[a]].text) < len(nets[bySize[b]].text) })
	bits := uint(bitsLen(set - 1))
	rankNet := make([]int32, set)
	for r := range rankNet {
		q := (int(reverseBits(uint64(r), bits)) + set/2) % set
		rankNet[r] = int32(bySize[q])
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "serve-hot/zipf", 0)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(set-1))
	stream := make([]int32, zipfLen)
	for i := range stream {
		stream[i] = rankNet[z.Uint64()]
	}
	return &solveInputs{nets: nets, segLen: defaultSegLen, zipf: stream}, nil
}

func bitsLen(v int) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	return n
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint64, n uint) uint64 {
	var r uint64
	for i := uint(0); i < n; i++ {
		r = r<<1 | v>>i&1
	}
	return r
}

// workedTree builds the tree the server solves from one net text: parse,
// segment, and insert the root buffer site, exactly as /solve does.
func workedTree(text string, segLen float64) (*rctree.Tree, error) {
	t, err := netfmt.Read(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	if err := segmentTree(t, segLen); err != nil {
		return nil, err
	}
	return t, nil
}

func segmentTree(t *rctree.Tree, segLen float64) error {
	if segLen <= 0 {
		return nil
	}
	if _, err := segment.ByLength(t, segLen); err != nil {
		return err
	}
	_, err := t.InsertBelow(t.Root())
	return err
}

// ecoNet is one /solve/delta session's net and the benchmark's replica of
// its worked tree (the ID space edits address).
type ecoNet struct {
	create  []byte       // the session-creating body
	replica *rctree.Tree // segmented, root site inserted, binarized
	sinks   []rctree.NodeID
	wired   []rctree.NodeID // every non-root node
}

// ecoCorpusSeed fixes the eco-fresh session nets; --seed draws their edit
// streams. Delta cost is bimodal across tail nets: about one in five is
// timing-tight enough that the MinBuffersNoise deepening reruns the DP at
// larger buffer counts, and its re-solves run 5–10× slower. With the few
// sessions a server holds in memory, a per-seed draw of nets would let
// the draw, not the program, set the numbers; thousands of seeded edits
// over one fixed design average out.
const ecoCorpusSeed = 1

// newLargeInputs is the serve-large stream: the tail nets of one fixed
// suite in a seeded order, cycled in epochs. A run serves only about
// 1,500 of these ~100–140-node nets, too few for a per-seed draw to
// average out the 5–10× cost gap between timing-tight and slack tail
// nets; the fixed suite keeps the run's work, not its draw, what the
// numbers measure.
func newLargeInputs(seed int64, pool int) (*solveInputs, error) {
	in, err := newDistinctInputs(largeCorpusSeed, "serve-large", pool, fineSegLen, isTail)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(subSeed(seed, "serve-large/order", 0)))
	r.Shuffle(len(in.nets), func(a, b int) { in.nets[a], in.nets[b] = in.nets[b], in.nets[a] })
	return in, nil
}

// largeCorpusSeed fixes the serve-large suite; --seed draws its order.
const largeCorpusSeed = 1

// newEcoInputs draws one tail net per session.
func newEcoInputs(seed int64, sessions int) ([]*ecoNet, error) {
	trees, err := genNets(seed, "eco-fresh", sessions, isTail)
	if err != nil {
		return nil, err
	}
	out := make([]*ecoNet, len(trees))
	for i, t := range trees {
		var buf bytes.Buffer
		if err := netfmt.Write(&buf, t); err != nil {
			return nil, err
		}
		segLen := fineSegLen
		body, err := json.Marshal(server.Envelope{V: intPtr(2), Net: buf.String(),
			Options: &server.OptionsEnvelope{SegLen: &segLen}})
		if err != nil {
			return nil, err
		}
		rep, err := workedTree(buf.String(), fineSegLen)
		if err != nil {
			return nil, err
		}
		rep.Binarize()
		n := &ecoNet{create: body, replica: rep, sinks: rep.Sinks()}
		for id := 1; id < rep.Len(); id++ {
			n.wired = append(n.wired, rctree.NodeID(id))
		}
		out[i] = n
	}
	return out, nil
}

func intPtr(v int) *int { return &v }

// editKey identifies one edit for the never-repeat rule: node, op and the
// value bits (both parasitics for set-wire).
type editKey struct {
	node int
	op   string
	a, b uint64
}

// editGen is one session's edit stream: set-cap, set-rat and set-wire
// edits with fresh values, so no re-solve can replay a memoized state.
// Values are drawn around the original net's, never around earlier
// edits, so the net stays in its Table I shape however long the stream.
type editGen struct {
	net  *ecoNet
	rng  *randv2.Rand
	seen map[editKey]struct{}
}

func newEditGen(seed int64, session int, n *ecoNet) *editGen {
	s := uint64(subSeed(seed, "eco-fresh/edits", session))
	return &editGen{net: n, rng: randv2.New(randv2.NewPCG(s, s^0x9e3779b97f4a7c15)), seen: map[editKey]struct{}{}}
}

// next returns the stream's next edit.
func (g *editGen) next() server.EditEnvelope {
	for {
		var e server.EditEnvelope
		var k editKey
		switch op := g.rng.IntN(3); op {
		case 0, 1:
			v := g.net.sinks[g.rng.IntN(len(g.net.sinks))]
			n := g.net.replica.Node(v)
			val := n.Cap * (0.5 + g.rng.Float64())
			e = server.EditEnvelope{Op: "set-cap", Node: int(v)}
			if op == 1 {
				val = n.RAT * (0.9 + 0.2*g.rng.Float64())
				e.Op = "set-rat"
			}
			e.Value = &val
			k = editKey{node: e.Node, op: e.Op, a: math.Float64bits(val)}
		default:
			v := g.net.wired[g.rng.IntN(len(g.net.wired))]
			w := g.net.replica.Node(v).Wire
			nw := server.WireEnvelope{R: w.R * (0.5 + g.rng.Float64()), C: w.C * (0.5 + g.rng.Float64()), Length: w.Length}
			e = server.EditEnvelope{Op: "set-wire", Node: int(v), Wire: &nw}
			k = editKey{node: e.Node, op: e.Op, a: math.Float64bits(nw.R), b: math.Float64bits(nw.C)}
		}
		if _, dup := g.seen[k]; dup {
			continue
		}
		g.seen[k] = struct{}{}
		return e
	}
}

// applyEdit applies one wire-format edit to a replica tree, as the
// session does to its own.
func applyEdit(t *rctree.Tree, e server.EditEnvelope) {
	n := t.Node(rctree.NodeID(e.Node))
	switch e.Op {
	case "set-cap":
		n.Cap = *e.Value
	case "set-rat":
		n.RAT = *e.Value
	case "set-wire":
		n.Wire = rctree.Wire{R: e.Wire.R, C: e.Wire.C, Length: e.Wire.Length}
	}
}

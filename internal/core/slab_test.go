package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// testWriter returns a fresh slab and a writer appending to it, for tests
// that drive the DP's steps directly. Production code never builds links
// without the slab of the run (or session) that owns them.
func testWriter() (*solSlab, *slabWriter) {
	s := &solSlab{}
	w := s.writer()
	return s, &w
}

// slabUsed counts the links a slab has handed out: every chunk's slots,
// less the free tails closed writers left behind.
func slabUsed(s *solSlab) int {
	n := s.capacity()
	for _, sp := range s.spare {
		n -= slabChunkLen - int(sp.off)
	}
	return n
}

// TestCandidatePointerFree keeps candidate lists out of the GC's scan set:
// one pointer-carrying field in vgCand or solLink — a pointer, slice,
// map, string, interface, func or chan — would make every candidate
// list, arena array, memo entry and slab chunk scannable memory again.
func TestCandidatePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s: it holds a pointer the GC must scan", path, typ.Kind())
		}
	}
	walk("vgCand", reflect.TypeOf(vgCand{}))
	walk("solLink", reflect.TypeOf(solLink{}))
	if got := reflect.TypeOf(solLink{}).Size(); got != 24 {
		t.Errorf("solLink is %d bytes, want 24", got)
	}
}

// TestSlabWriters pins the slab's bookkeeping: refs stay valid across
// chunk boundaries and writers, a closed writer's tail is reused by the
// next writer, and reset empties the slab.
func TestSlabWriters(t *testing.T) {
	s := &solSlab{}
	a, b := s.writer(), s.writer()
	var refs []solRef
	for i := 0; i < slabChunkLen+10; i++ {
		refs = append(refs, a.add(solLink{node: rctree.NodeID(i), buf: 1}))
		refs = append(refs, b.add(solLink{node: rctree.NodeID(i), buf: 2}))
	}
	if n := a.close() + b.close(); n != int64(len(refs)) {
		t.Fatalf("writers report %d links, wrote %d", n, len(refs))
	}
	if len(s.chunks) != 4 || len(s.spare) != 2 || slabUsed(s) != len(refs) {
		t.Fatalf("%d chunks, %d spare tails, %d used; want 4, 2, %d", len(s.chunks), len(s.spare), slabUsed(s), len(refs))
	}
	for i, r := range refs {
		if l := s.link(r); int(l.node) != i/2 || l.buf != int32(1+i%2) {
			t.Fatalf("ref %d reads %+v", r, *l)
		}
	}
	c := s.writer()
	c.add(solLink{})
	c.close()
	if len(s.chunks) != 4 || slabUsed(s) != len(refs)+1 {
		t.Fatalf("the next writer took a fresh chunk instead of a spare tail: %d chunks", len(s.chunks))
	}
	s.reset()
	if s.capacity() != 0 || len(s.spare) != 0 {
		t.Fatal("reset left chunks behind")
	}
}

// memoSnapshot records every resident entry of a session's memo: the
// candidates' values bit for bit and their flattened solution lists.
type memoSnapshot map[string][]entrySnap

type entrySnap struct {
	bits   [4]uint64
	counts [3]int
	assign map[rctree.NodeID]string
	widths map[rctree.NodeID]float64
}

func snapshotMemo(s *Session) memoSnapshot {
	out := memoSnapshot{}
	for _, e := range s.memo.Entries() {
		var snaps []entrySnap
		for _, c := range e.Val.cands {
			a, w := collectSol(s.slab, c.sol, s.p.Library)
			names := map[rctree.NodeID]string{}
			for k, b := range a {
				names[k] = b.Name
			}
			snaps = append(snaps, entrySnap{
				bits: [4]uint64{math.Float64bits(c.load), math.Float64bits(c.q),
					math.Float64bits(c.down), math.Float64bits(c.ns)},
				counts: [3]int{c.nbuf, c.cost, int(c.pol)},
				assign: names,
				widths: w,
			})
		}
		out[e.Key] = snaps
	}
	return out
}

func (m memoSnapshot) equal(o memoSnapshot) bool {
	return reflect.DeepEqual(m, o)
}

// TestSlabCompactionPreservesMemo: compacting a session's slab leaves
// every resident memo entry's values bit for bit and its solution lists,
// flattened, unchanged — while dropping the dead links the edits left
// behind.
func TestSlabCompactionPreservesMemo(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 4)
	rng := rand.New(rand.NewSource(17))
	dropped := 0
	for ni, net := range nets {
		for _, obj := range []Objective{MaxSlack, MinBuffersNoise} {
			s, err := NewSession(Problem{Tree: net, Library: lib, Params: params, Objective: obj}, SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; {
				e, ok := randomEdit(s.Tree(), rng)
				if !ok || e.Op == EditGraft || e.Op == EditPrune {
					continue
				}
				step++
				if _, err := Delta(context.Background(), s, []Edit{e}, Options{Sizing: &Sizing{Widths: []float64{1, 2}}}); err != nil {
					t.Fatalf("net %d: %v", ni, err)
				}
			}
			before := snapshotMemo(s)
			used := slabUsed(s.slab)
			s.compactSlab()
			if after := snapshotMemo(s); !before.equal(after) {
				t.Fatalf("net %d, %v: compaction changed the resident entries", ni, obj)
			}
			if int(s.live) != slabUsed(s.slab) || s.live > int64(used) {
				t.Fatalf("net %d, %v: compaction kept %d links of %d, slab holds %d", ni, obj, s.live, used, slabUsed(s.slab))
			}
			dropped += used - int(s.live)
		}
	}
	if dropped == 0 {
		t.Fatal("the edits left no dead link to drop")
	}
}

// TestSlabCompactionThenPrune: a prune edit after a compaction renumbers
// the survivors, so memo loads relocate compacted lists; every answer
// still equals Optimize from scratch.
func TestSlabCompactionThenPrune(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 6)
	prunes := 0
	for ni, net := range nets {
		for _, opts := range []Options{{}, {workers: 4}} {
			p := Problem{Tree: net, Library: lib, Params: params, Objective: MaxSlackNoise}
			s, err := NewSession(p, SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Delta(context.Background(), s, nil, opts); err != nil {
				t.Fatal(err)
			}
			s.compactSlab()
			rng := rand.New(rand.NewSource(int64(ni)))
			pruned := false
			for try := 0; try < 50 && !pruned; try++ {
				e, ok := randomEdit(s.Tree(), rng)
				if !ok || e.Op != EditPrune {
					continue
				}
				pruned = true
				prunes++
				got, err := Delta(context.Background(), s, []Edit{e}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Reused == 0 {
					t.Fatalf("net %d: the prune reused nothing; relocation was not exercised", ni)
				}
				ref := p
				ref.Tree = s.Tree()
				want, err := Optimize(context.Background(), ref, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := resultsEqual(got.Result, want); err != nil {
					t.Fatalf("net %d: post-compaction prune diverged from scratch: %v", ni, err)
				}
				s.compactSlab()
				again, err := Delta(context.Background(), s, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := resultsEqual(again.Result, want); err != nil {
					t.Fatalf("net %d: compacting the relocated lists changed the answer: %v", ni, err)
				}
			}
		}
	}
	if prunes < len(nets) {
		t.Fatalf("only %d prunes over %d nets", prunes, len(nets))
	}
}

// TestDeltaStreamWithBudgetTrips: a Delta stream with budget-tripped
// calls interleaved stays bit-identical to from-scratch solves on every
// later successful call. Failed runs leave dead links behind; the slab
// never grows past the compaction bound, and compaction does run.
func TestDeltaStreamWithBudgetTrips(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 8)
	net := nets[0]
	for _, n := range nets {
		if n.Len() > net.Len() {
			net = n
		}
	}
	p := Problem{Tree: net, Library: lib, Params: params, Objective: MinBuffersNoise}
	s, err := NewSession(p, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	failed, deadAfterFailure := 0, false
	for step := 0; step < 30; step++ {
		e, ok := randomEdit(s.Tree(), rng)
		if !ok || e.Op == EditGraft || e.Op == EditPrune {
			continue
		}
		opts := Options{}
		trip := step%3 == 1
		if trip {
			b := guard.New(context.Background())
			b.MaxCandidates = 4 + rng.Intn(20)
			opts.Budget = b
		}
		used := slabUsed(s.slab)
		got, err := Delta(context.Background(), s, []Edit{e}, opts)
		switch {
		case trip && errors.Is(err, guard.ErrBudgetExceeded):
			failed++
			if slabUsed(s.slab) > used {
				deadAfterFailure = true
			}
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		default:
			ref := p
			ref.Tree = s.Tree()
			want, err := Optimize(context.Background(), ref, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := resultsEqual(got.Result, want); err != nil {
				t.Fatalf("step %d: delta diverged from scratch: %v", step, err)
			}
		}
		if c := int64(s.slab.capacity()); c > 2*s.live+slabSlack {
			t.Fatalf("step %d: slab holds %d links, over the bound 2×%d + %d", step, c, s.live, slabSlack)
		}
	}
	if failed == 0 || !deadAfterFailure {
		t.Fatalf("%d budget trips, dead links after a trip: %v; both must happen", failed, deadAfterFailure)
	}
	if s.live == 0 {
		t.Fatal("the stream never compacted the slab")
	}
}

// TestSessionPurgeResetsSlab: Purge drops the slab with the entries, and
// the slab-bytes gauge follows; a Purge of a busy session hands the
// compaction to the next Delta.
func TestSessionPurgeResetsSlab(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 2)
	s, err := NewSession(Problem{Tree: nets[0], Library: lib, Params: params, Objective: MaxSlackNoise},
		SessionConfig{Namespace: "slabtest"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Delta(context.Background(), s, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if s.slab.capacity() == 0 || s.slabTotal.Load() != s.slab.bytes() {
		t.Fatalf("after a solve: %d links, gauge total %d for %d bytes", s.slab.capacity(), s.slabTotal.Load(), s.slab.bytes())
	}
	s.Purge()
	if s.slab.capacity() != 0 || s.slabTotal.Load() != 0 {
		t.Fatalf("after Purge: %d links, gauge total %d", s.slab.capacity(), s.slabTotal.Load())
	}

	// A Purge that finds the session busy leaves the slab to the next
	// Delta, which must keep the links its own entries need.
	if _, err := Delta(context.Background(), s, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.Purge()
	s.mu.Unlock()
	if !s.purged.Load() || s.slab.capacity() == 0 {
		t.Fatal("a busy Purge touched the slab or left no request behind")
	}
	sink := s.Tree().Sinks()[0]
	got, err := Delta(context.Background(), s, []Edit{{Op: EditSetCap, Node: sink, Value: 21e-15}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.purged.Load() || s.live == 0 || s.slabTotal.Load() != s.slab.bytes() {
		t.Fatalf("the next Delta did not compact: live %d, gauge total %d for %d bytes", s.live, s.slabTotal.Load(), s.slab.bytes())
	}
	again, err := Delta(context.Background(), s, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Reused != 1 {
		t.Fatalf("the compacted memo did not answer the root: %+v", again)
	}
	if err := resultsEqual(again.Result, got.Result); err != nil {
		t.Fatalf("compaction after a busy Purge changed the answer: %v", err)
	}
}

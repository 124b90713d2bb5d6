package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sync/atomic"

	"buffopt/internal/buffers"
	"buffopt/internal/cache"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Subtree memoization: the incremental (ECO) re-solve engine's core.
//
// The dynamic program is bottom-up — a node's finished candidate list is
// a pure function of its subtree's content (topology + electricals,
// including the node's own parent wire, which is charged before the
// parent consumes the list) and of the solve options. rctree.SubtreeHash
// captures exactly the first part; memoKeySuffix captures the second.
// Between them, a memo entry keyed by hash+suffix can be replayed at any
// node of any tree whose subtree matches, and the replay is bit-identical
// to recomputation: post-prune lists are canonical (pruneVG's total-order
// sort plus dominance leaves no full ties), so the stored list IS the
// list a fresh compute would produce.
//
// An edit to one node therefore invalidates only the hashes on its
// root-to-node path: a memoized re-solve walks top-down from the root,
// loads every subtree whose entry is current, and recomputes just the
// O(depth) ancestors of the change — the ROADMAP's "Incremental (ECO)
// re-solve engine".

// subtreeMemo is one memoized per-subtree candidate list. The cands'
// solution lists live in the session's slab, so an entry's only pointers
// are its two slices, whose contents the GC never scans.
// Entries are immutable to runs (the session cache runs with a nil
// Clone): loads copy the slice into the run's arena before the DP may
// mutate it in place, and links in the slab are never rewritten. Only
// slab compaction, under the session lock with no run in flight,
// rewrites the refs in cands (Session.settleSlab). ids records the
// subtree's preorder node numbering at store time, so a load after a
// renumbering edit (prune) can relocate the solution lists instead of
// discarding the entry.
type subtreeMemo struct {
	ids   []rctree.NodeID
	cands []vgCand
}

// memoTable is the per-session store of subtree entries, bounded like
// every other cache in the system (LRU entries + bytes, exact books).
type memoTable = cache.Cache[*subtreeMemo]

// subtreeMemoSize approximates an entry's resident footprint: candidate
// structs plus an amortized share of the solution lists behind them,
// plus the id list. Generous constants — the byte bound is a safety
// valve.
func subtreeMemoSize(e *subtreeMemo) int64 {
	const (
		base = 96
		// perCand overstates a candidate's footprint: a vgCand is 56 B
		// and a slab link 24 B, shared between the candidates whose
		// lists have a common tail. It stays because the memo byte
		// budget's eviction points, and with them the memo's reuse, are
		// tuned to it. The slab's real size is the "<ns>.slab.bytes"
		// gauge.
		perCand = 160
		perID   = 8
	)
	if e == nil {
		return base
	}
	return base + int64(len(e.cands))*perCand + int64(len(e.ids))*perID
}

// memoRun is one solve's view of a session memo: the table, the current
// subtree hashes (indexed by NodeID, kept incremental by the session),
// the options-slice key suffix (set by runVG once the engine is
// resolved), and the run's ledger. Counters are atomic because the
// parallel walk stores from worker goroutines; lookups == reused +
// resolved holds exactly on every successful run — the gate visits a
// node (one lookup), and every visited node is either loaded (reused) or
// computed and stored (resolved).
type memoRun struct {
	table  *memoTable
	hashes []rctree.SubtreeHash
	suffix string
	// slab is the session's solution store: the run writes its links
	// there, and the entries' refs point into it.
	slab *solSlab

	lookups  atomic.Int64
	reused   atomic.Int64
	resolved atomic.Int64
}

// counts returns the run's ledger.
func (m *memoRun) counts() (lookups, reused, resolved int64) {
	return m.lookups.Load(), m.reused.Load(), m.resolved.Load()
}

// flush publishes the run ledger to the obs registry and the DP span.
func (m *memoRun) flush(sp *obs.SpanHandle) {
	lk, ru, rs := m.counts()
	obs.Add("vg.memo.lookups", lk)
	obs.Add("vg.memo.reused", ru)
	obs.Add("vg.memo.resolved", rs)
	sp.SetAttr("memo", "on")
}

// key is the memo key for node v: the subtree's content hash plus the
// options slice. The engine name as such is excluded — only the one
// engine-visible behavior bit (fastMergeOK) enters via the suffix.
func (m *memoRun) key(v rctree.NodeID) string {
	return hex.EncodeToString(m.hashes[v][:]) + "/" + m.suffix
}

// memoKeySuffix hashes the solve-relevant option slice and the buffer
// library: everything besides the subtree content that determines a
// node's candidate list. Budget caps are excluded (they can only abort a
// run, never change a successful list), as are Workers (bit-identical by
// the differential gate). In count-indexed runs maxBuffers is included —
// every cap, 0 too, is an explicit bound, and the iterative deepening
// ladder genuinely changes list contents per cap. The library is hashed
// in order, which also keys the buffer indexes the stored solution links
// carry.
func memoKeySuffix(o vgOptions, lib *buffers.Library) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b1 := func(v byte) { buf[0] = v; h.Write(buf[:1]) }
	bol := func(v bool) {
		if v {
			b1(1)
		} else {
			b1(0)
		}
	}
	str := func(s string) { u64(uint64(len(s))); io.WriteString(h, s) }

	str("buffopt.subtreememo.v1")
	bol(o.noise)
	if o.noise {
		f64(o.params.CouplingRatio)
		f64(o.params.Slope)
	}
	bol(o.countIndexed)
	if o.countIndexed {
		u64(uint64(int64(o.maxBuffers)))
	}
	bol(o.safePruning)
	u64(uint64(len(o.widths)))
	for _, w := range o.widths {
		f64(w)
	}
	f64(o.fringe)
	bol(o.fastMergeOK())
	u64(uint64(len(lib.Buffers)))
	for _, b := range lib.Buffers {
		str(b.Name)
		f64(b.Cin)
		f64(b.R)
		f64(b.T)
		f64(b.NoiseMargin)
		bol(b.Inverting)
		u64(uint64(int64(b.Weight)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// store memoizes node v's finished candidate list: a private plain copy
// (never arena-backed — the arena reuses returned backing) plus the
// subtree's current preorder ids. Called from computeNode after the list
// is final (pruned and wire-charged), so serial, parallel, and subset
// walks all store through the same line.
func (m *memoRun) store(t *rctree.Tree, v rctree.NodeID, list []vgCand) {
	m.resolved.Add(1)
	m.table.Put(m.key(v), &subtreeMemo{
		ids:   t.Subtree(v),
		cands: append([]vgCand(nil), list...),
	})
}

// load returns an arena-backed copy of node v's memoized list, if the
// table holds a current entry. When the tree was renumbered since the
// entry was stored (prune compaction), the stored solution lists are
// relocated through the positional old→new id map — hash equality
// guarantees the two preorders align node for node — and the relocated
// entry, its links written by w, replaces the stale one.
func (m *memoRun) load(t *rctree.Tree, v rctree.NodeID, ar *candArena, w *slabWriter) ([]vgCand, bool) {
	key := m.key(v)
	e, ok := m.table.Get(key)
	if !ok {
		return nil, false
	}
	ids := t.Subtree(v)
	if !equalIDs(e.ids, ids) {
		e = remapMemo(e, ids, m.slab, w)
		m.table.Put(key, e)
	}
	m.reused.Add(1)
	return append(ar.get(len(e.cands)), e.cands...), true
}

func equalIDs(a, b []rctree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// remapMemo rebuilds an entry under a new node numbering. Links are
// never rewritten, so relocation appends renumbered copies of the
// entry's links to the slab through w, one per old link (a map keeps the
// lists' shared tails shared, and the copy the same size).
func remapMemo(e *subtreeMemo, ids []rctree.NodeID, slab *solSlab, w *slabWriter) *subtreeMemo {
	idMap := make(map[rctree.NodeID]rctree.NodeID, len(e.ids))
	for i, old := range e.ids {
		idMap[old] = ids[i]
	}
	seen := make(map[solRef]solRef)
	var remap func(r solRef) solRef
	remap = func(r solRef) solRef {
		if r == 0 {
			return 0
		}
		if nr, ok := seen[r]; ok {
			return nr
		}
		nl := *slab.link(r)
		if nn, ok := idMap[nl.node]; ok {
			nl.node = nn
		}
		nl.prev = [2]solRef{remap(nl.prev[0]), remap(nl.prev[1])}
		nr := w.add(nl)
		seen[r] = nr
		return nr
	}
	cands := make([]vgCand, len(e.cands))
	for i, c := range e.cands {
		c.sol = remap(c.sol)
		cands[i] = c
	}
	return &subtreeMemo{ids: ids, cands: cands}
}

// memoGate is the top-down phase of a memoized run: starting at the root,
// load every subtree whose entry is current (its nodes are skipped
// entirely) and descend into the rest. It returns the compute set in
// postorder — children before parents, ready for the serial loop or the
// parallel climb. The set is ancestor-closed (a computed node's parent
// also missed, or the gate would not have descended), which is exactly
// the invariant the parallel scheduler's last-child-finisher climb needs.
func memoGate(t *rctree.Tree, opts vgOptions, lists [][]vgCand) ([]rctree.NodeID, error) {
	m := opts.memo
	var order []rctree.NodeID
	type frame struct {
		id      rctree.NodeID
		next    int
		checked bool
	}
	stack := []frame{{id: t.Root()}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if !f.checked {
			f.checked = true
			if err := opts.budget.Check(); err != nil {
				return order, err
			}
			m.lookups.Add(1)
			if list, ok := m.load(t, f.id, opts.arena, opts.sol); ok {
				lists[f.id] = list
				stack = stack[:len(stack)-1]
				continue
			}
		}
		ch := t.Node(f.id).Children
		if f.next < len(ch) {
			f.next++
			stack = append(stack, frame{id: ch[f.next-1]})
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	return order, nil
}

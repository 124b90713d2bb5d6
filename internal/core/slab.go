package core

import (
	"sync"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// Solution records, Fig. 11's persistent solution lists. Every candidate
// carries the head of the list of decisions that built it: a buffer at a
// node, a width for a node's parent wire, or a junction joining the
// lists of two branches. Candidates share their tails, so each list is a
// DAG of links. The links live in a solSlab and refer to each other by
// solRef, a 4-byte index, so neither a candidate nor a link holds a
// pointer: candidate lists, the arena's arrays, session memo entries and
// the slab's chunks are all memory the garbage collector never scans,
// and building a link is a store into a chunk, not an allocation.
//
// Lifetimes: a /solve run (optimize) takes a slab from slabPool and
// returns it once finishVG has flattened the answer. A Session owns one
// slab for its memo; every Delta appends to it and the session compacts
// it once dead links outweigh live ones (Session.settleSlab).
//
// Concurrency: each goroutine of a run appends through its own
// slabWriter, which takes whole chunks from the slab under its mutex and
// fills them privately. Links are read only after the writers are done —
// by collectSol once the run has finished, by memoGate's relocation
// before the walk starts, and by compaction under the session lock — so
// no read races a write.

// solRef addresses one link of a solSlab: 1 + the link's index. The zero
// ref is the empty list (no decision).
type solRef int32

// solLink is one decision in a solution list. buf is a library index (a
// buffer at node), widthLink (width is the multiplier chosen for node's
// parent wire) or junctionLink (a branch node's join of its children's
// lists, prev[0] the left and prev[1] the right, carrying no decision).
// Links carry the library index rather than the Buffer itself: the
// index is stable for every list a run or a session memo can combine,
// because memo entries are keyed by the library's content
// (memoKeySuffix).
type solLink struct {
	node  rctree.NodeID
	buf   int32
	width float64
	prev  [2]solRef
}

// Marker values of solLink.buf besides library indexes.
const (
	widthLink    int32 = -1
	junctionLink int32 = -2
	// movedLink marks a link compaction has copied; prev[0] holds the
	// copy's ref. Only ever seen in chunks about to be recycled.
	movedLink int32 = -3
)

const (
	slabChunkBits = 10
	// slabChunkLen is how many links one chunk holds, the unit a writer
	// takes from its slab.
	slabChunkLen = 1 << slabChunkBits
)

type slabChunk [slabChunkLen]solLink

// slabChunkBytes is the resident size of one chunk: a solLink is 24 B
// (TestCandidatePointerFree pins it).
const slabChunkBytes = slabChunkLen * 24

// chunkPool recycles chunks between slabs. A chunk is never cleared: a
// writer overwrites every link it hands out a ref to before anyone can
// read it.
var chunkPool = sync.Pool{New: func() any { return new(slabChunk) }}

// solSlab is a chunked, append-only store of solution links.
type solSlab struct {
	mu     sync.Mutex
	chunks []*slabChunk
	// spare lists the partly filled chunks closed writers handed back,
	// so the next writer continues where they stopped.
	spare []slabSpan
}

// slabSpan is the free tail of a chunk: chunk index and first free slot.
type slabSpan struct{ chunk, off int32 }

// slabPool recycles run-local slabs (and their chunk slices) across
// solves.
var slabPool = sync.Pool{New: func() any { return new(solSlab) }}

// getSlab returns an empty slab for one solve.
func getSlab() *solSlab { return slabPool.Get().(*solSlab) }

// release recycles a run-local slab once nothing refers into it.
func (s *solSlab) release() {
	s.reset()
	slabPool.Put(s)
}

// reset empties the slab and recycles its chunks.
func (s *solSlab) reset() {
	for _, c := range s.chunks {
		chunkPool.Put(c)
	}
	clear(s.chunks)
	s.chunks, s.spare = s.chunks[:0], s.spare[:0]
}

// link returns the link r addresses; r must be nonzero.
func (s *solSlab) link(r solRef) *solLink {
	i := int(r - 1)
	return &s.chunks[i>>slabChunkBits][i&(slabChunkLen-1)]
}

// capacity is the number of links the slab's chunks hold, used or not.
func (s *solSlab) capacity() int { return len(s.chunks) * slabChunkLen }

// bytes is the slab's resident chunk memory.
func (s *solSlab) bytes() int64 { return int64(len(s.chunks)) * slabChunkBytes }

// slabWriter appends links to a slab on behalf of one goroutine.
type slabWriter struct {
	slab  *solSlab
	chunk *slabChunk
	base  solRef // ref of chunk[0]
	n     int    // links used in chunk
	links int64  // links written through this writer
}

// writer returns a writer appending to s.
func (s *solSlab) writer() slabWriter { return slabWriter{slab: s} }

// add appends l and returns its ref.
func (w *slabWriter) add(l solLink) solRef {
	if w.chunk == nil || w.n == slabChunkLen {
		w.grab()
	}
	w.chunk[w.n] = l
	w.n++
	w.links++
	return w.base + solRef(w.n-1)
}

// grab takes the next chunk to fill: a spare tail if there is one, else
// a fresh chunk.
func (w *slabWriter) grab() {
	s := w.slab
	s.mu.Lock()
	sp := slabSpan{chunk: int32(len(s.chunks))}
	if k := len(s.spare); k > 0 {
		sp, s.spare = s.spare[k-1], s.spare[:k-1]
	} else {
		s.chunks = append(s.chunks, chunkPool.Get().(*slabChunk))
	}
	w.chunk = s.chunks[sp.chunk]
	s.mu.Unlock()
	w.base = solRef(int(sp.chunk)<<slabChunkBits + 1)
	w.n = int(sp.off)
}

// close hands the writer's unused tail back to the slab and returns how
// many links the writer wrote. The writer may be used again afterwards.
func (w *slabWriter) close() int64 {
	if w.chunk != nil && w.n < slabChunkLen {
		s := w.slab
		s.mu.Lock()
		s.spare = append(s.spare, slabSpan{chunk: int32((w.base - 1) >> slabChunkBits), off: int32(w.n)})
		s.mu.Unlock()
	}
	w.chunk = nil
	n := w.links
	w.links = 0
	return n
}

// moveTo copies the list r heads into the slab w writes to and returns
// the copy's ref, marking every copied link moved so links shared
// between lists are copied once. Tails are copied before the links that
// point at them. s must not be read as a solution store afterwards: the
// caller recycles its chunks (see compact).
func (s *solSlab) moveTo(w *slabWriter, r solRef, stack []solRef) (solRef, []solRef) {
	if r == 0 {
		return 0, stack
	}
	stack = append(stack[:0], r)
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		l := s.link(top)
		if l.buf == movedLink {
			stack = stack[:len(stack)-1]
			continue
		}
		pending := false
		for _, p := range l.prev {
			if p != 0 && s.link(p).buf != movedLink {
				stack = append(stack, p)
				pending = true
			}
		}
		if pending {
			continue
		}
		nl := *l
		for i, p := range l.prev {
			if p != 0 {
				nl.prev[i] = s.link(p).prev[0]
			}
		}
		*l = solLink{buf: movedLink, prev: [2]solRef{w.add(nl)}}
		stack = stack[:len(stack)-1]
	}
	return s.link(r).prev[0], stack
}

// compact moves every link reachable from the refs roots yields into
// fresh chunks, rewrites those refs in place, and recycles the old
// chunks. It returns the number of live links. The caller must hold
// every reference into s among the roots.
func (s *solSlab) compact(roots func(yield func(*solRef))) int64 {
	fresh := &solSlab{}
	w := fresh.writer()
	var stack []solRef
	roots(func(r *solRef) {
		*r, stack = s.moveTo(&w, *r, stack)
	})
	live := w.close()
	s.reset()
	s.chunks = append(s.chunks, fresh.chunks...)
	s.spare = append(s.spare, fresh.spare...)
	return live
}

// collectSol flattens the solution list r heads into a buffer assignment
// and a wire width map, resolving buffer indexes against lib, the
// library the list was built with.
func collectSol(s *solSlab, r solRef, lib *buffers.Library) (map[rctree.NodeID]buffers.Buffer, map[rctree.NodeID]float64) {
	assign := make(map[rctree.NodeID]buffers.Buffer)
	widths := make(map[rctree.NodeID]float64)
	var stack [64]solRef
	todo := append(stack[:0], r)
	for len(todo) > 0 {
		r := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if r == 0 {
			continue
		}
		l := s.link(r)
		switch l.buf {
		case junctionLink:
		case widthLink:
			widths[l.node] = l.width
		default:
			assign[l.node] = lib.Buffers[l.buf]
		}
		todo = append(todo, l.prev[0], l.prev[1])
	}
	return assign, widths
}

package rctree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The compact codec is the binary codec's in-memory sibling: the same
// fields, bit for bit, but each node's floats are written only where they
// differ from the previous node's, and counts and references are
// varints. A segmented net repeats its wire parasitics, zero loads and
// aggressor lists along its chains, so a solution tree's encoding
// shrinks to a little over half. It is what a result cache keeps
// resident; nothing persists it, so it carries no version beyond its
// magic.

const compactMagic = "rcc1"

// The compact node header's flag bits.
const (
	compactBufferOK   = 1 << iota // Node.BufferOK
	compactAggressors             // Wire.Aggressors is non-nil
	compactSameAggr               // Wire.Aggressors equals the previous node's, bit for bit
)

// compactFloats lists a node's floats in encoding order; bit f of a
// node's mask marks field f as written (it differs from the previous
// node's).
func compactFloats(n *Node) [8]float64 {
	return [8]float64{n.X, n.Y, n.Cap, n.RAT, n.NoiseMargin, n.Wire.R, n.Wire.C, n.Wire.Length}
}

// AppendCompact appends t's compact encoding to buf and returns the
// extended slice. DecodeCompact inverts it exactly.
func (t *Tree) AppendCompact(buf []byte) []byte {
	buf = append(buf, compactMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.DriverResistance))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.DriverDelay))
	buf = binary.AppendUvarint(buf, uint64(len(t.nodes)))
	var prev *Node
	var prevFloats [8]float64
	for i := range t.nodes {
		n := &t.nodes[i]
		flags := byte(0)
		if n.BufferOK {
			flags |= compactBufferOK
		}
		if n.Wire.Aggressors != nil {
			flags |= compactAggressors
		}
		if prev != nil && sameAggressors(n.Wire.Aggressors, prev.Wire.Aggressors) {
			flags |= compactSameAggr
		}
		floats := compactFloats(n)
		mask := byte(0)
		for f, v := range floats {
			if math.Float64bits(v) != math.Float64bits(prevFloats[f]) {
				mask |= 1 << f
			}
		}
		buf = append(buf, byte(n.Kind), flags, mask)
		for f, v := range floats {
			if mask&(1<<f) != 0 {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Name)))
		buf = append(buf, n.Name...)
		if flags&compactSameAggr == 0 {
			buf = binary.AppendUvarint(buf, uint64(len(n.Wire.Aggressors)))
			for _, a := range n.Wire.Aggressors {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Ratio))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Slope))
			}
		}
		// The source's parent is None (−1), so parents are stored + 1.
		buf = binary.AppendUvarint(buf, uint64(int64(n.Parent)+1))
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		for _, c := range n.Children {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
		prev, prevFloats = n, floats
	}
	return buf
}

// sameAggressors reports whether two aggressor lists encode identically:
// equal nil-ness, length and bits.
func sameAggressors(a, b []Coupling) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Ratio) != math.Float64bits(b[i].Ratio) ||
			math.Float64bits(a[i].Slope) != math.Float64bits(b[i].Slope) {
			return false
		}
	}
	return true
}

// DecodeCompact parses a tree encoded by AppendCompact, consuming exactly
// len(data) bytes, and validates it with the same checks as DecodeBinary:
// corrupt input is an error, never a panic and never a malformed tree.
func DecodeCompact(data []byte) (*Tree, error) {
	d := &decoder{buf: data}
	if string(d.bytes(len(compactMagic))) != compactMagic {
		return nil, fmt.Errorf("rctree: decode: bad magic")
	}
	t := &Tree{
		DriverResistance: d.float64(),
		DriverDelay:      d.float64(),
	}
	// A node takes at least six bytes: kind, flags, mask, and three
	// one-byte varints.
	count := d.count(6)
	t.nodes = make([]Node, 0, count)
	var prevFloats [8]float64
	var prevAggr []Coupling
	for i := 0; i < count && d.err == nil; i++ {
		n := Node{ID: NodeID(i), Kind: Kind(d.byte())}
		flags, mask := d.byte(), d.byte()
		floats := prevFloats
		for f := range floats {
			if mask&(1<<f) != 0 {
				floats[f] = d.float64()
			}
		}
		n.X, n.Y, n.Cap, n.RAT, n.NoiseMargin = floats[0], floats[1], floats[2], floats[3], floats[4]
		n.Wire.R, n.Wire.C, n.Wire.Length = floats[5], floats[6], floats[7]
		n.Name = string(d.bytes(d.count(1)))
		n.BufferOK = flags&compactBufferOK != 0
		switch {
		case flags&compactSameAggr != 0:
			if prevAggr != nil {
				n.Wire.Aggressors = append([]Coupling{}, prevAggr...)
			}
		default:
			nagg := d.count(16)
			if flags&compactAggressors != 0 {
				n.Wire.Aggressors = make([]Coupling, 0, nagg)
			} else if nagg != 0 && d.err == nil {
				return nil, fmt.Errorf("rctree: decode: node %d has %d aggressors but nil marker", i, nagg)
			}
			for j := 0; j < nagg && d.err == nil; j++ {
				n.Wire.Aggressors = append(n.Wire.Aggressors, Coupling{Ratio: d.float64(), Slope: d.float64()})
			}
		}
		if (n.Wire.Aggressors != nil) != (flags&compactAggressors != 0) && d.err == nil {
			return nil, fmt.Errorf("rctree: decode: node %d aggressor marker disagrees with the previous node's list", i)
		}
		n.Parent = NodeID(int64(d.uvarint()) - 1)
		if nchild := d.count(1); nchild > 0 {
			n.Children = make([]NodeID, 0, nchild)
			for j := 0; j < nchild && d.err == nil; j++ {
				n.Children = append(n.Children, NodeID(d.uvarint()))
			}
		}
		t.nodes = append(t.nodes, n)
		prevFloats, prevAggr = floats, n.Wire.Aggressors
	}
	if err := t.checkDecoded(d); err != nil {
		return nil, err
	}
	return t, nil
}

// uvarint reads one unsigned varint that fits in 32 bits.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || v > math.MaxInt32 {
		d.err = fmt.Errorf("invalid varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a varint count of items that take at least minBytes each,
// refusing counts the remaining input cannot hold, so a corrupt count is
// an error rather than an allocation.
func (d *decoder) count(minBytes int) int {
	n := int(d.uvarint())
	if d.err == nil && n > len(d.buf)/minBytes {
		d.err = fmt.Errorf("count %d exceeds input size", n)
		return 0
	}
	return n
}

package rctree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec for Tree, used by the cache-snapshot and peer-fill layers
// (core.EncodeSolveResult). The encoding is bit-exact: every float crosses
// the wire as its IEEE-754 bit pattern, node order and child order are
// preserved verbatim, and nil-vs-empty aggressor slices survive the round
// trip — so a tree decoded from a snapshot re-analyzes to byte-identical
// responses. Node IDs are not serialized; the ID==index invariant makes
// them implicit, and Decode re-derives and Validates them.

// treeMagic guards against feeding arbitrary bytes to the tree decoder;
// the outer snapshot/result layers carry their own magic and checksum.
const treeMagic = "rct1"

// minEncodedNode is a lower bound on one node's encoding: kind, name
// length, five node floats, BufferOK, three wire floats, aggressor count,
// parent, child count. Decode uses it to bound the node-count field by
// the bytes actually present before allocating.
const minEncodedNode = 1 + 4 + 5*8 + 1 + 3*8 + 4 + 4 + 4

// AppendBinary appends t's binary encoding to buf and returns the
// extended slice.
func (t *Tree) AppendBinary(buf []byte) []byte {
	buf = append(buf, treeMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.DriverResistance))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.DriverDelay))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		buf = append(buf, byte(n.Kind))
		buf = appendString(buf, n.Name)
		for _, f := range [...]float64{n.X, n.Y, n.Cap, n.RAT, n.NoiseMargin} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		buf = appendBool(buf, n.BufferOK)
		for _, f := range [...]float64{n.Wire.R, n.Wire.C, n.Wire.Length} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		// Nil-vs-empty is semantic (nil = lumped noise model, empty =
		// explicit model with no aggressors), so it gets its own bit.
		buf = appendBool(buf, n.Wire.Aggressors != nil)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Wire.Aggressors)))
		for _, a := range n.Wire.Aggressors {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Ratio))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Slope))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(n.Parent)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Children)))
		for _, c := range n.Children {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c)))
		}
	}
	return buf
}

// MarshalBinary returns t's binary encoding.
func (t *Tree) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(nil), nil
}

// DecodeBinary parses a tree encoded by AppendBinary, consuming exactly
// len(data) bytes, and validates the result: any truncation, trailing
// garbage, out-of-range reference, or structural corruption is an error,
// never a panic and never a malformed tree.
func DecodeBinary(data []byte) (*Tree, error) {
	d := &decoder{buf: data}
	if string(d.bytes(len(treeMagic))) != treeMagic {
		return nil, fmt.Errorf("rctree: decode: bad magic")
	}
	t := &Tree{
		DriverResistance: d.float64(),
		DriverDelay:      d.float64(),
	}
	count := int(d.uint32())
	if d.err == nil && count > len(d.buf)/minEncodedNode+1 {
		return nil, fmt.Errorf("rctree: decode: node count %d exceeds input size", count)
	}
	if d.err != nil {
		return nil, fmt.Errorf("rctree: decode: %w", d.err)
	}
	t.nodes = make([]Node, 0, count)
	for i := 0; i < count && d.err == nil; i++ {
		n := Node{ID: NodeID(i), Kind: Kind(d.byte())}
		n.Name = d.string()
		n.X, n.Y = d.float64(), d.float64()
		n.Cap, n.RAT, n.NoiseMargin = d.float64(), d.float64(), d.float64()
		n.BufferOK = d.bool()
		n.Wire.R, n.Wire.C, n.Wire.Length = d.float64(), d.float64(), d.float64()
		hasAggressors := d.bool()
		nagg := int(d.uint32())
		if d.err == nil && nagg > len(d.buf)/16 {
			return nil, fmt.Errorf("rctree: decode: node %d aggressor count %d exceeds input size", i, nagg)
		}
		if hasAggressors {
			n.Wire.Aggressors = make([]Coupling, 0, nagg)
			for j := 0; j < nagg && d.err == nil; j++ {
				n.Wire.Aggressors = append(n.Wire.Aggressors, Coupling{
					Ratio: d.float64(), Slope: d.float64(),
				})
			}
		} else if nagg != 0 && d.err == nil {
			return nil, fmt.Errorf("rctree: decode: node %d has %d aggressors but nil marker", i, nagg)
		}
		n.Parent = NodeID(int32(d.uint32()))
		nchild := int(d.uint32())
		if d.err == nil && nchild > len(d.buf)/4 {
			return nil, fmt.Errorf("rctree: decode: node %d child count %d exceeds input size", i, nchild)
		}
		if nchild > 0 {
			n.Children = make([]NodeID, 0, nchild)
			for j := 0; j < nchild && d.err == nil; j++ {
				n.Children = append(n.Children, NodeID(int32(d.uint32())))
			}
		}
		t.nodes = append(t.nodes, n)
	}
	if err := t.checkDecoded(d); err != nil {
		return nil, err
	}
	return t, nil
}

// checkDecoded is the decoders' shared tail: the input must be consumed
// exactly, every reference in range, and the tree valid.
func (t *Tree) checkDecoded(d *decoder) error {
	if d.err != nil {
		return fmt.Errorf("rctree: decode: %w", d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("rctree: decode: %d trailing bytes", len(d.buf))
	}
	// Range-check references before Validate walks them.
	for i := range t.nodes {
		n := &t.nodes[i]
		if i == 0 {
			if n.Parent != None {
				return fmt.Errorf("rctree: decode: source has parent %d", n.Parent)
			}
		} else if !t.valid(n.Parent) {
			return fmt.Errorf("rctree: decode: node %d parent %d out of range", i, n.Parent)
		}
		for _, c := range n.Children {
			if !t.valid(c) {
				return fmt.Errorf("rctree: decode: node %d child %d out of range", i, c)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("rctree: decode: %w", err)
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decoder is a cursor over the encoded bytes with sticky error handling:
// the first short read poisons every later access, so the per-field calls
// above stay unconditional and the caller checks d.err once per node.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf) {
		if d.err == nil {
			d.err = fmt.Errorf("truncated input (want %d bytes, have %d)", n, len(d.buf))
		}
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("invalid boolean byte")
		}
		return false
	}
}

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) float64() float64 {
	return math.Float64frombits(d.uint64())
}

func (d *decoder) string() string {
	n := int(d.uint32())
	if d.err == nil && n > len(d.buf) {
		d.err = fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.buf))
		return ""
	}
	return string(d.bytes(n))
}

package rctree_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// compactTrees are the round-trip corpus: random trees, segmented (long
// chains of repeated parasitics, the case the codec compresses), with
// aggressor lists nil, empty and populated, plus special floats.
func compactTrees(t *testing.T) []*rctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	var trees []*rctree.Tree
	for trial := 0; trial < 200; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 6, MaxSinks: 5, BufferSites: trial%2 == 0})
		for i := 1; i < tr.Len(); i++ {
			switch n := tr.Node(rctree.NodeID(i)); rng.Intn(4) {
			case 0:
				n.Wire.Aggressors = []rctree.Coupling{}
			case 1:
				n.Wire.Aggressors = []rctree.Coupling{{Ratio: rng.Float64(), Slope: 1e9 * rng.Float64()}}
			}
		}
		if _, err := segment.ByCount(tr, 1+rng.Intn(5)); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	special := rctree.New("s", 0, 0)
	if _, err := special.AddSink(special.Root(), rctree.Wire{R: 1, C: 1}, "k", 0, math.MaxFloat64, 0); err != nil {
		t.Fatal(err)
	}
	special.Node(1).X = math.Copysign(0, -1)
	return append(trees, special)
}

// TestCompactRoundTrip: DecodeCompact inverts AppendCompact bit for bit
// — checked through the binary codec, whose encoding covers every field
// including the nil-vs-empty aggressor distinction — and the compact
// form is smaller on segmented trees.
func TestCompactRoundTrip(t *testing.T) {
	var binTotal, compactTotal int
	for i, tr := range compactTrees(t) {
		enc := tr.AppendCompact(nil)
		got, err := rctree.DecodeCompact(enc)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		want := tr.AppendBinary(nil)
		if !bytes.Equal(got.AppendBinary(nil), want) {
			t.Fatalf("tree %d: compact round trip differs from the original", i)
		}
		binTotal += len(want)
		compactTotal += len(enc)
	}
	t.Logf("binary %d bytes, compact %d bytes", binTotal, compactTotal)
	if 2*compactTotal > binTotal {
		t.Fatalf("compact encoding %d bytes is not under half the binary %d", compactTotal, binTotal)
	}
}

// TestCompactRejectsCorruption: every truncation, a trailing byte and a
// bad magic fail cleanly, never with a panic or a malformed tree.
func TestCompactRejectsCorruption(t *testing.T) {
	for i, tr := range compactTrees(t)[:20] {
		enc := tr.AppendCompact(nil)
		for n := 0; n < len(enc); n++ {
			if _, err := rctree.DecodeCompact(enc[:n]); err == nil {
				t.Fatalf("tree %d: truncation to %d of %d bytes accepted", i, n, len(enc))
			}
		}
		if _, err := rctree.DecodeCompact(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatalf("tree %d: trailing byte accepted", i)
		}
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xff
		if _, err := rctree.DecodeCompact(bad); err == nil {
			t.Fatalf("tree %d: bad magic accepted", i)
		}
	}
}

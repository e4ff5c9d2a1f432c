package pseudo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/zoo"
)

// western returns the benchmark's dataset, generated once per test binary.
var western = sync.OnceValue(func() []geom.Item { return dataset.Western(300000, 2004) })

// treeDigest hashes what the in-memory construction decides and nothing
// else. Depth first, priority leaves before children, it takes each node's
// bounds; each leaf's direction (4 for a plain leaf), size and member ids in
// ascending order; and each kd node's axis and split value when it has two
// children. A node with one child records no split — its split value is an
// arbitrary member's coordinate — and the order of records inside a leaf is
// left out, as in the external construction's leafSetDigest.
func treeDigest(tr *Tree) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	leaf := func(dir int, members []int32) {
		ids := make([]uint32, len(members))
		for i, m := range members {
			ids[i] = tr.items[m].ID
		}
		slices.Sort(ids)
		put(uint64(dir))
		put(uint64(len(ids)))
		for _, id := range ids {
			put(uint64(id))
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range [4]float64{n.Bounds.MinX, n.Bounds.MinY, n.Bounds.MaxX, n.Bounds.MaxY} {
			put(math.Float64bits(c))
		}
		if n.IsLeaf() {
			leaf(4, n.Items)
			return
		}
		for dir, p := range n.Priority {
			if len(p) > 0 {
				leaf(dir, p)
			}
		}
		if n.Left != nil && n.Right != nil {
			put(uint64(n.Axis))
			put(math.Float64bits(n.SplitValue))
		}
		for _, c := range []*Node{n.Left, n.Right} {
			if c != nil {
				walk(c)
			}
		}
	}
	if tr.Root != nil {
		walk(tr.Root)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestBuildDigestGolden pins the in-memory construction — leaf sets,
// priority directions, node bounds and split values — to digests computed
// at commit 7bf0db3, before the fused peel and the two-way partition. Only
// the order of records inside a leaf may differ from that commit. The
// inputs are the benchmark's Western set and a duplicate-heavy one whose
// coordinates take five values, both at B = 113, serial and on two workers.
func TestBuildDigestGolden(t *testing.T) {
	defer allowParallelism()()
	cases := []struct {
		name   string
		items  []geom.Item
		digest string
	}{
		{name: "western216k", items: western(), digest: "83db17fcdfd6f64c"},
		{name: "grid60k", items: zoo.Lattice(60000, 33), digest: "6b14ff878c124440"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			tr := Build(c.items, 113, true, workers)
			if got := treeDigest(tr); got != c.digest {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name, workers, got, c.digest)
			}
		}
	}
}

// allowParallelism raises GOMAXPROCS so the worker pool actually fans out
// even on single-CPU machines (workers are clamped to GOMAXPROCS).
func allowParallelism() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prtree/internal/geom"
)

func abs32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// index2DRef is the classic iterative quadrant-rotation loop: the oracle
// for Index2D's table transducer.
func index2DRef(x, y uint32, bits int) uint64 {
	var d uint64
	for s := uint32(1) << (bits - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - (x & (s - 1)) | (x &^ (2*s - 1))
				y = s - 1 - (y & (s - 1)) | (y &^ (2*s - 1))
			}
			x, y = y, x
		}
	}
	return d
}

// TestIndex2DMatchesRef: every cell of every grid up to 256 x 256, and a
// million random cells each on the 2^16 grid the partitions use and the
// largest one, get the oracle's index.
func TestIndex2DMatchesRef(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		for x := uint32(0); x < 1<<bits; x++ {
			for y := uint32(0); y < 1<<bits; y++ {
				if got, want := Index2D(x, y, bits), index2DRef(x, y, bits); got != want {
					t.Fatalf("bits=%d (%d,%d): Index2D %d, oracle %d", bits, x, y, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{16, 31} {
		mask := uint32(1)<<bits - 1
		for i := 0; i < 1_000_000; i++ {
			x, y := rng.Uint32()&mask, rng.Uint32()&mask
			if got, want := Index2D(x, y, bits), index2DRef(x, y, bits); got != want {
				t.Fatalf("bits=%d (%d,%d): Index2D %d, oracle %d", bits, x, y, got, want)
			}
		}
	}
}

func TestIndex2DKnownOrder2(t *testing.T) {
	// The order-2 (4x4) Hilbert curve starting at (0,0): the classic
	// Wikipedia xy2d mapping.
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {1, 0}: 1, {1, 1}: 2, {0, 1}: 3,
		{0, 2}: 4, {0, 3}: 5, {1, 3}: 6, {1, 2}: 7,
		{2, 2}: 8, {2, 3}: 9, {3, 3}: 10, {3, 2}: 11,
		{3, 1}: 12, {2, 1}: 13, {2, 0}: 14, {3, 0}: 15,
	}
	for xy, d := range want {
		if got := Index2D(xy[0], xy[1], 2); got != d {
			t.Errorf("Index2D(%d,%d) = %d, want %d", xy[0], xy[1], got, d)
		}
	}
}

func TestIndex2DBijectiveSmall(t *testing.T) {
	const bits = 4
	side := uint32(1) << bits
	seen := make(map[uint64][2]uint32)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			d := Index2D(x, y, bits)
			if d >= uint64(side)*uint64(side) {
				t.Fatalf("index %d out of range for (%d,%d)", d, x, y)
			}
			if prev, dup := seen[d]; dup {
				t.Fatalf("collision: (%d,%d) and (%d,%d) both map to %d", x, y, prev[0], prev[1], d)
			}
			seen[d] = [2]uint32{x, y}
		}
	}
}

func TestIndex2DAdjacency(t *testing.T) {
	// Consecutive Hilbert indices must be adjacent grid cells (Manhattan
	// distance exactly 1) — the locality property that makes packed
	// Hilbert R-trees work.
	const bits = 5
	side := uint64(1) << bits
	var px, py uint32
	for d := uint64(0); d < side*side; d++ {
		x, y := Coords2D(d, bits)
		if d > 0 {
			if abs32(x, px)+abs32(y, py) != 1 {
				t.Fatalf("indices %d and %d not adjacent: (%d,%d) vs (%d,%d)", d-1, d, px, py, x, y)
			}
		}
		px, py = x, y
	}
}

func TestCoords2DRoundTrip(t *testing.T) {
	prop := func(x, y uint32) bool {
		const bits = 16
		x &= (1 << bits) - 1
		y &= (1 << bits) - 1
		d := Index2D(x, y, bits)
		gx, gy := Coords2D(d, bits)
		return gx == x && gy == y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestIndex2DBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bits=0 should panic")
		}
	}()
	Index2D(0, 0, 0)
}

func TestIndexDBijectiveSmall(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		const bits = 2
		side := uint32(1) << bits
		total := uint64(1) << uint(dims*bits)
		seen := make(map[uint64]bool)
		coords := make([]uint32, dims)
		var walk func(i int)
		walk = func(i int) {
			if i == dims {
				c := make([]uint32, dims)
				copy(c, coords)
				d := Index(c, bits)
				if d >= total {
					t.Fatalf("dims=%d: index %d out of range for %v", dims, d, coords)
				}
				if seen[d] {
					t.Fatalf("dims=%d: collision at %d for %v", dims, d, coords)
				}
				seen[d] = true
				return
			}
			for v := uint32(0); v < side; v++ {
				coords[i] = v
				walk(i + 1)
			}
		}
		walk(0)
		if uint64(len(seen)) != total {
			t.Fatalf("dims=%d: only %d of %d cells covered", dims, len(seen), total)
		}
	}
}

func TestIndexDAdjacency(t *testing.T) {
	// Skilling's curve must also visit cells in unit steps.
	for _, dims := range []int{2, 3, 4} {
		const bits = 2
		total := uint64(1) << uint(dims*bits)
		prev := Coords(0, dims, bits)
		for h := uint64(1); h < total; h++ {
			cur := Coords(h, dims, bits)
			dist := uint32(0)
			for i := 0; i < dims; i++ {
				dist += abs32(cur[i], prev[i])
			}
			if dist != 1 {
				t.Fatalf("dims=%d: steps %d->%d jump %d cells: %v -> %v", dims, h-1, h, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestIndexDRoundTripQuick(t *testing.T) {
	prop := func(a, b, c, d uint32) bool {
		const bits = 16
		coords := []uint32{a & 0xffff, b & 0xffff, c & 0xffff, d & 0xffff}
		h := Index(coords, bits)
		got := Coords(h, 4, bits)
		for i := range coords {
			if got[i] != coords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexDoesNotMutateInput(t *testing.T) {
	coords := []uint32{3, 1, 2}
	Index(coords, 4)
	if coords[0] != 3 || coords[1] != 1 || coords[2] != 2 {
		t.Errorf("input mutated: %v", coords)
	}
}

func TestIndexBadArgsPanics(t *testing.T) {
	cases := []func(){
		func() { Index(nil, 4) },
		func() { Index(make([]uint32, 5), 13) }, // 65 bits
		func() { Coords(0, 0, 4) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQuantizer2DKeyDistinct(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	q := NewQuantizer2D(world, 16)
	k1 := q.Key(0.1, 0.1)
	k2 := q.Key(0.9, 0.9)
	k3 := q.Key(0.1, 0.1)
	if k1 == k2 {
		t.Error("distant points should get different keys")
	}
	if k1 != k3 {
		t.Error("same point must get same key")
	}
}

func TestQuantizer2DClamps(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	q := NewQuantizer2D(world, 8)
	// Out-of-world points clamp rather than wrap.
	if q.Key(-5, -5) != q.Key(0, 0) {
		t.Error("low clamp failed")
	}
	if q.Key(5, 5) != q.Key(1, 1) {
		t.Error("high clamp failed")
	}
}

func TestQuantizer2DDegenerateWorld(t *testing.T) {
	q := NewQuantizer2D(geom.PointRect(2, 3), 8)
	if q.Key(2, 3) != q.Key(100, -7) {
		t.Error("degenerate world should map everything to one cell")
	}
}

func TestQuantizerCenterKeyLocality(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	q := NewQuantizer2D(world, 16)
	// Two nearly identical rectangles should have close keys; a far one
	// should usually be farther. This is a sanity check, not a strict
	// property (Hilbert locality is statistical).
	a := q.CenterKey(geom.NewRect(0.10, 0.10, 0.11, 0.11))
	b := q.CenterKey(geom.NewRect(0.101, 0.10, 0.111, 0.11))
	c := q.CenterKey(geom.NewRect(0.9, 0.9, 0.91, 0.91))
	distAB := int64(a) - int64(b)
	if distAB < 0 {
		distAB = -distAB
	}
	distAC := int64(a) - int64(c)
	if distAC < 0 {
		distAC = -distAC
	}
	if distAB >= distAC {
		t.Errorf("locality violated: |a-b|=%d >= |a-c|=%d", distAB, distAC)
	}
}

func TestQuantizer4DKey(t *testing.T) {
	world := geom.NewRect(0, 0, 1, 1)
	q := NewQuantizer4D(world, 16)
	r1 := geom.NewRect(0.1, 0.1, 0.2, 0.2)
	r2 := geom.NewRect(0.1, 0.1, 0.9, 0.9) // same corner, very different extent
	if q.Key(r1) == q.Key(r2) {
		t.Error("4D key must distinguish extents")
	}
	if q.Key(r1) != q.Key(r1) {
		t.Error("4D key must be deterministic")
	}
}

func TestQuantizer4DTooManyBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("4*17 bits should panic")
		}
	}()
	NewQuantizer4D(geom.NewRect(0, 0, 1, 1), 17)
}

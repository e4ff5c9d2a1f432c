// Package hilbert computes Hilbert space-filling curve indices in two and d
// dimensions. The packed Hilbert R-tree (H) sorts rectangle centers by the
// 2D curve; the four-dimensional Hilbert R-tree (H4) sorts the corner
// transform (xmin, ymin, xmax, ymax) by the 4D curve.
//
// The 2D path is the classic quadrant-rotation algorithm run as a
// table-driven state machine; the d-dimensional path is Skilling's
// transpose algorithm ("Programming the Hilbert curve", AIP Conf. Proc.
// 707, 2004), which works for any number of dimensions and bit depth with
// dims*bits <= 64.
package hilbert

import (
	"fmt"

	"prtree/internal/geom"
)

// Index2D returns the Hilbert index of cell (x, y) on the 2^bits x 2^bits
// grid. bits must be in [1, 31]; x and y must be < 2^bits.
//
// The quadrant rotations below each level (swap the axes, and in one
// quadrant complement them) commute and are involutions, so the classic
// loop is a 4-state transducer over bit pairs; Index2D runs it from a
// table, a nibble of each coordinate a step, with no data-dependent branch.
func Index2D(x, y uint32, bits int) uint64 {
	if bits < 1 || bits > 31 {
		panic(fmt.Sprintf("hilbert: Index2D bits %d out of range [1,31]", bits))
	}
	// Leading zero levels round bits up to whole nibbles. Each emits digit
	// 0 and swaps the axes, so the walk starts swapped after an odd number.
	pad := -bits & 3
	state := uint(pad & 1)
	var d uint64
	for shift := bits + pad - 4; shift >= 0; shift -= 4 {
		e := index2DTable[state<<8|uint(x>>shift&15)<<4|uint(y>>shift&15)]
		d = d<<8 | uint64(e&0xff)
		state = uint(e >> 8)
	}
	return d
}

// index2DTable maps (state, x nibble, y nibble) to the four digits those
// levels emit (low byte) and the state after them (high byte). A state is
// bit 0 "axes swapped" and bit 1 "axes complemented".
var index2DTable = func() (t [4 << 8]uint16) {
	for i := range t {
		state := uint16(i >> 8)
		var digits uint16
		for level := 3; level >= 0; level-- {
			bx, by := uint16(i>>(4+level))&1, uint16(i>>level)&1
			if state&1 != 0 {
				bx, by = by, bx
			}
			rx, ry := bx^state>>1, by^state>>1
			digits = digits<<2 | ((3 * rx) ^ ry)
			if ry == 0 {
				state ^= 1 | rx<<1
			}
		}
		t[i] = state<<8 | digits
	}
	return t
}()

// Coords2D inverts Index2D: it returns the (x, y) cell of Hilbert index d
// on the 2^bits grid.
func Coords2D(d uint64, bits int) (x, y uint32) {
	if bits < 1 || bits > 31 {
		panic(fmt.Sprintf("hilbert: Coords2D bits %d out of range [1,31]", bits))
	}
	t := d
	for s := uint64(1); s < uint64(1)<<bits; s *= 2 {
		rx := uint32(1 & (t / 2))
		ry := uint32(1 & (t ^ uint64(rx)))
		// Rotate back.
		if ry == 0 {
			if rx == 1 {
				x = uint32(s) - 1 - x
				y = uint32(s) - 1 - y
			}
			x, y = y, x
		}
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

// Index returns the Hilbert index of the cell with the given coordinates on
// the d-dimensional 2^bits grid, where d = len(coords). It requires
// 1 <= d*bits <= 64 and every coordinate < 2^bits. The slice is not modified.
func Index(coords []uint32, bits int) uint64 {
	dims := len(coords)
	if dims == 0 || bits < 1 || dims*bits > 64 {
		panic(fmt.Sprintf("hilbert: Index dims=%d bits=%d unsupported", dims, bits))
	}
	x := make([]uint32, dims)
	copy(x, coords)
	axesToTranspose(x, bits)
	return interleave(x, bits)
}

// Coords inverts Index: it returns the coordinates of the cell with Hilbert
// index h on the dims-dimensional 2^bits grid.
func Coords(h uint64, dims, bits int) []uint32 {
	if dims == 0 || bits < 1 || dims*bits > 64 {
		panic(fmt.Sprintf("hilbert: Coords dims=%d bits=%d unsupported", dims, bits))
	}
	x := deinterleave(h, dims, bits)
	transposeToAxes(x, bits)
	return x
}

// axesToTranspose converts coordinates into Skilling's transpose form
// in place.
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place.
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	m := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transpose into a single index: bit j of axis i lands
// at position j*dims + (dims-1-i), most significant bits first.
func interleave(x []uint32, bits int) uint64 {
	dims := len(x)
	var h uint64
	for j := bits - 1; j >= 0; j-- {
		for i := 0; i < dims; i++ {
			h = (h << 1) | uint64((x[i]>>uint(j))&1)
		}
	}
	return h
}

func deinterleave(h uint64, dims, bits int) []uint32 {
	x := make([]uint32, dims)
	pos := dims*bits - 1
	for j := bits - 1; j >= 0; j-- {
		for i := 0; i < dims; i++ {
			x[i] |= uint32((h>>uint(pos))&1) << uint(j)
			pos--
		}
	}
	return x
}

// Quantizer2D maps points in a world rectangle onto the 2^bits Hilbert
// grid. The grid is square over the larger world extent (both axes share
// one scale), matching the classical packed-Hilbert implementations the
// paper benchmarks: per-axis normalization would silently rescale
// anisotropic data and change the curve's clustering behavior.
type Quantizer2D struct {
	world geom.Rect
	bits  int
	sx    float64
	sy    float64
}

// NewQuantizer2D builds a quantizer for points inside world. A degenerate
// world quantizes everything to cell 0.
func NewQuantizer2D(world geom.Rect, bits int) Quantizer2D {
	q := Quantizer2D{world: world, bits: bits}
	side := float64(uint64(1) << uint(bits))
	extent := world.Width()
	if h := world.Height(); h > extent {
		extent = h
	}
	if extent > 0 {
		q.sx = side / extent
		q.sy = side / extent
	}
	return q
}

// Key returns the Hilbert index of point (x, y).
func (q Quantizer2D) Key(x, y float64) uint64 {
	return Index2D(cell(x, q.world.MinX, q.sx, q.bits), cell(y, q.world.MinY, q.sy, q.bits), q.bits)
}

// CenterKey returns the Hilbert index of the rectangle's center — the sort
// key of the packed Hilbert R-tree.
func (q Quantizer2D) CenterKey(r geom.Rect) uint64 {
	cx, cy := r.Center()
	return q.Key(cx, cy)
}

// cell maps v onto the 2^bits grid that starts at lo, clamped to the grid.
func cell(v, lo, scale float64, bits int) uint32 {
	return uint32(min(max(int64((v-lo)*scale), 0), int64(1)<<uint(bits)-1))
}

// Quantizer4D maps 2D rectangles onto the 4D Hilbert grid via the corner
// transform — the sort key of the four-dimensional Hilbert R-tree.
type Quantizer4D struct {
	world geom.Rect
	bits  int
	sx    float64
	sy    float64
}

// NewQuantizer4D builds a quantizer; bits must satisfy 4*bits <= 64. Like
// Quantizer2D it uses one uniform scale for all coordinates.
func NewQuantizer4D(world geom.Rect, bits int) Quantizer4D {
	if 4*bits > 64 {
		panic(fmt.Sprintf("hilbert: Quantizer4D bits %d too large", bits))
	}
	q := Quantizer4D{world: world, bits: bits}
	side := float64(uint64(1) << uint(bits))
	extent := world.Width()
	if h := world.Height(); h > extent {
		extent = h
	}
	if extent > 0 {
		q.sx = side / extent
		q.sy = side / extent
	}
	return q
}

// Key returns the 4D Hilbert index of (xmin, ymin, xmax, ymax).
func (q Quantizer4D) Key(r geom.Rect) uint64 {
	coords := []uint32{
		cell(r.MinX, q.world.MinX, q.sx, q.bits),
		cell(r.MinY, q.world.MinY, q.sy, q.bits),
		cell(r.MaxX, q.world.MinX, q.sx, q.bits),
		cell(r.MaxY, q.world.MinY, q.sy, q.bits),
	}
	return Index(coords, q.bits)
}

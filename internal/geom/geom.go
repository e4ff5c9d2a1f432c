// Package geom provides the planar geometric primitives used throughout the
// PR-tree implementation: axis-parallel rectangles, intersection and
// containment predicates, and minimal-bounding-box algebra. Rect is the
// two-dimensional index's rectangle (the paper's experimental setting).
package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-parallel rectangle in the plane, closed on all sides.
// The zero value is the degenerate rectangle at the origin. A Rect is
// valid when MinX <= MaxX and MinY <= MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the coordinate order so the result is always valid.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// PointRect returns the degenerate rectangle covering exactly the point (x, y).
func PointRect(x, y float64) Rect {
	return Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
}

// Valid reports whether r has non-inverted extents in both dimensions.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
// Touching boundaries count as intersecting, matching the window-query
// semantics of the paper ("retrieve all rectangles that intersect Q").
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// Union returns the minimal bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	// Direct comparisons rather than math.Min/Max: this is the hottest
	// operation in every bulk loader and the NaN semantics of math.Min are
	// irrelevant for valid rectangles.
	if s.MinX < r.MinX {
		r.MinX = s.MinX
	}
	if s.MinY < r.MinY {
		r.MinY = s.MinY
	}
	if s.MaxX > r.MaxX {
		r.MaxX = s.MaxX
	}
	if s.MaxY > r.MaxY {
		r.MaxY = s.MaxY
	}
	return r
}

// Intersect returns the overlap of r and s. The second result is false when
// the rectangles are disjoint, in which case the returned Rect is undefined.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

// Area returns the area of r; degenerate rectangles have zero area.
func (r Rect) Area() float64 {
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Perimeter returns half the perimeter (the "margin") of r.
func (r Rect) Perimeter() float64 {
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Dist2 returns the squared Euclidean distance from the point (x, y) to
// the nearest point of r (0 if inside): the metric every nearest-neighbour
// search ranks by.
func (r Rect) Dist2(x, y float64) float64 {
	var dx, dy float64
	switch {
	case x < r.MinX:
		dx = r.MinX - x
	case x > r.MaxX:
		dx = x - r.MaxX
	}
	switch {
	case y < r.MinY:
		dy = r.MinY - y
	case y > r.MaxY:
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the center point of r.
func (r Rect) Center() (x, y float64) {
	return (r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2
}

// EnlargementArea returns the increase in area needed for r to cover s.
// It is the classic Guttman insertion cost.
func (r Rect) EnlargementArea(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Coord returns one of the four defining coordinates of r addressed by axis:
// 0 -> MinX, 1 -> MinY, 2 -> MaxX, 3 -> MaxY. This is the corner transform
// R -> (xmin, ymin, xmax, ymax) used by the pseudo-PR-tree; the axis order
// matches the round-robin split order of the paper.
func (r Rect) Coord(axis int) float64 {
	switch axis & 3 {
	case 0:
		return r.MinX
	case 1:
		return r.MinY
	case 2:
		return r.MaxX
	default:
		return r.MaxY
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[(%g,%g)-(%g,%g)]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// MBR returns the minimal bounding rectangle of a non-empty slice.
// It panics on an empty slice: callers always have at least one entry.
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("geom: MBR of empty slice")
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out = out.Union(r)
	}
	return out
}

// EmptyRect returns the identity element for Union: a rectangle that any
// Union call absorbs. It is not Valid.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{MinX: inf, MinY: inf, MaxX: -inf, MaxY: -inf}
}

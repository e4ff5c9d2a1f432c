package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	want := Rect{1, 2, 3, 4}
	if r != want {
		t.Fatalf("NewRect(3,4,1,2) = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatal("normalized rect should be valid")
	}
}

func TestPointRect(t *testing.T) {
	p := PointRect(2, 3)
	if p.Area() != 0 {
		t.Errorf("point rect area = %g, want 0", p.Area())
	}
	if want := (Rect{2, 3, 2, 3}); p != want || !p.Valid() {
		t.Errorf("point rect = %v, want the valid %v", p, want)
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Rect
		want bool
	}{
		{NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3), true},
		{NewRect(0, 0, 2, 2), NewRect(2, 2, 3, 3), true}, // touching corner
		{NewRect(0, 0, 2, 2), NewRect(2, 0, 3, 2), true}, // touching edge
		{NewRect(0, 0, 2, 2), NewRect(2.1, 0, 3, 2), false},
		{NewRect(0, 0, 2, 2), NewRect(0, 2.1, 2, 3), false},
		{NewRect(0, 0, 10, 10), NewRect(4, 4, 5, 5), true}, // containment
		{PointRect(1, 1), PointRect(1, 1), true},
		{PointRect(1, 1), PointRect(1.0000001, 1), false},
	}
	for i, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: %v.Intersects(%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("case %d (sym): %v.Intersects(%v) = %v, want %v", i, c.b, c.a, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.Contains(NewRect(0, 0, 10, 10)) {
		t.Error("rect should contain itself")
	}
	if !outer.Contains(NewRect(1, 1, 9, 9)) {
		t.Error("should contain strictly inner rect")
	}
	if outer.Contains(NewRect(1, 1, 11, 9)) {
		t.Error("should not contain overflowing rect")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 4)
	u := a.Union(b)
	if u != NewRect(0, 0, 3, 4) {
		t.Errorf("union = %v", u)
	}
	iv, ok := a.Intersect(b)
	if !ok || iv != NewRect(1, 1, 2, 2) {
		t.Errorf("intersect = %v ok=%v", iv, ok)
	}
	_, ok = a.Intersect(NewRect(5, 5, 6, 6))
	if ok {
		t.Error("disjoint rects should not intersect")
	}
}

func TestAreaPerimeter(t *testing.T) {
	r := NewRect(0, 0, 3, 4)
	if r.Area() != 12 {
		t.Errorf("area = %g", r.Area())
	}
	if r.Perimeter() != 7 {
		t.Errorf("perimeter(half) = %g", r.Perimeter())
	}
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("width/height = %g/%g", r.Width(), r.Height())
	}
	cx, cy := r.Center()
	if cx != 1.5 || cy != 2 {
		t.Errorf("center = (%g,%g)", cx, cy)
	}
}

func TestEnlargementArea(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	if e := a.EnlargementArea(NewRect(1, 1, 2, 2)); e != 0 {
		t.Errorf("contained rect should need 0 enlargement, got %g", e)
	}
	if e := a.EnlargementArea(NewRect(0, 0, 4, 2)); e != 4 {
		t.Errorf("enlargement = %g, want 4", e)
	}
}

func TestCoordAxes(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	want := [4]float64{1, 2, 3, 4}
	for axis := 0; axis < 4; axis++ {
		if got := r.Coord(axis); got != want[axis] {
			t.Errorf("Coord(%d) = %g, want %g", axis, got, want[axis])
		}
		// Round-robin wraps.
		if got := r.Coord(axis + 4); got != want[axis] {
			t.Errorf("Coord(%d) = %g, want %g", axis+4, got, want[axis])
		}
	}
}

func TestMBR(t *testing.T) {
	rects := []Rect{
		NewRect(0, 0, 1, 1),
		NewRect(-2, 3, 0, 5),
		NewRect(4, -1, 5, 0),
	}
	m := MBR(rects)
	if m != NewRect(-2, -1, 5, 5) {
		t.Errorf("MBR = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("MBR of empty slice should panic")
		}
	}()
	MBR(nil)
}

func TestEmptyRectAbsorbs(t *testing.T) {
	e := EmptyRect()
	if e.Valid() {
		t.Error("empty rect must be invalid")
	}
	r := NewRect(1, 2, 3, 4)
	if got := e.Union(r); got != r {
		t.Errorf("EmptyRect.Union(%v) = %v", r, got)
	}
}

// clampRect maps arbitrary float64 quadruples from testing/quick into valid,
// finite rectangles.
func clampRect(a, b, c, d float64) Rect {
	f := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	return NewRect(f(a), f(b), f(c), f(d))
}

func TestQuickUnionContainsBoth(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := clampRect(a, b, c, d)
		r2 := clampRect(e, f, g, h)
		u := r1.Union(r2)
		return u.Contains(r1) && u.Contains(r2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectionSymmetricAndContained(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := clampRect(a, b, c, d)
		r2 := clampRect(e, f, g, h)
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		iv, ok := r1.Intersect(r2)
		if ok != r1.Intersects(r2) {
			return false
		}
		if ok {
			return r1.Contains(iv) && r2.Contains(iv)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionMonotoneArea(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := clampRect(a, b, c, d)
		r2 := clampRect(e, f, g, h)
		u := r1.Union(r2)
		return u.Area() >= r1.Area() && u.Area() >= r2.Area()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEnlargementNonNegative(t *testing.T) {
	prop := func(a, b, c, d, e, f, g, h float64) bool {
		r1 := clampRect(a, b, c, d)
		r2 := clampRect(e, f, g, h)
		return r1.EnlargementArea(r2) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

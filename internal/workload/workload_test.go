package workload

import (
	"math"
	"testing"

	"prtree/internal/geom"
)

func TestSquaresAreaAndContainment(t *testing.T) {
	world := geom.NewRect(0, 0, 2, 2)
	qs := Squares(world, 0.01, 100, 1)
	if len(qs) != 100 {
		t.Fatalf("len = %d", len(qs))
	}
	wantArea := 0.01 * world.Area()
	for _, q := range qs {
		if !world.Contains(q) {
			t.Fatalf("query %v outside world", q)
		}
		if math.Abs(q.Area()-wantArea)/wantArea > 1e-9 {
			t.Fatalf("query area %g, want %g", q.Area(), wantArea)
		}
		if math.Abs(q.Width()-q.Height()) > 1e-12 {
			t.Fatalf("query not square: %v", q)
		}
	}
}

func TestSquaresDeterministic(t *testing.T) {
	a := Squares(geom.NewRect(0, 0, 1, 1), 0.02, 10, 5)
	b := Squares(geom.NewRect(0, 0, 1, 1), 0.02, 10, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same queries")
		}
	}
}

func TestSquaresClampToWorld(t *testing.T) {
	// Queries larger than the world clamp to its size.
	world := geom.NewRect(0, 0, 1, 0.1)
	qs := Squares(world, 5.0, 10, 2)
	for _, q := range qs {
		if !world.Contains(q) {
			t.Fatalf("clamped query %v escapes world", q)
		}
	}
}

func TestSkewedSquares(t *testing.T) {
	qs := SkewedSquares(0.01, 5, 200, 3)
	unit := geom.NewRect(0, 0, 1, 1)
	for _, q := range qs {
		if !unit.Contains(q) {
			t.Fatalf("skewed query %v outside unit square", q)
		}
		// x-extent stays sqrt(area); y-extent is squeezed.
		if math.Abs(q.Width()-0.1) > 1e-9 {
			t.Fatalf("width %g", q.Width())
		}
	}
	// Most queries should sit near y=0 like the data.
	low := 0
	for _, q := range qs {
		if q.MinY < 0.1 {
			low++
		}
	}
	if frac := float64(low) / float64(len(qs)); frac < 0.5 {
		t.Errorf("only %.2f of skewed queries near y=0", frac)
	}
}

func TestSkewedSquaresC1IsUnskewed(t *testing.T) {
	qs := SkewedSquares(0.01, 1, 50, 4)
	for _, q := range qs {
		if math.Abs(q.Height()-0.1) > 1e-9 {
			t.Fatalf("c=1 should keep square shape, got height %g", q.Height())
		}
	}
}

func TestSquaresOversizedSideClamps(t *testing.T) {
	world := geom.NewRect(-3, 2, 5, 2.5)
	for _, frac := range []float64{1.0, 4.0, 1000} {
		for _, q := range Squares(world, frac, 50, 7) {
			if !world.Contains(q) {
				t.Fatalf("areaFrac %g: query %v escapes world", frac, q)
			}
			if !q.Valid() {
				t.Fatalf("areaFrac %g: inverted query %v", frac, q)
			}
		}
	}
}

func TestSkewedSquaresOversizedAreaClamps(t *testing.T) {
	unit := geom.NewRect(0, 0, 1, 1)
	for _, q := range SkewedSquares(9.0, 3, 50, 8) {
		if !unit.Contains(q) {
			t.Fatalf("query %v escapes unit square", q)
		}
	}
}

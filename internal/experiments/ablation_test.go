package experiments

import (
	"fmt"
	"testing"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/zoo"
)

func TestBuildFromPseudoValid(t *testing.T) {
	items := dataset.Uniform(5000, 0.001, 1)
	for _, priority := range []bool{true, false} {
		for _, round := range []bool{true, false} {
			tr := buildFromPseudo(items, 16, priority, round)
			if tr.Len() != len(items) {
				t.Fatalf("priority=%v round=%v: len=%d", priority, round, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("priority=%v round=%v: %v", priority, round, err)
			}
			q := geom.NewRect(0.2, 0.2, 0.6, 0.6)
			if err := zoo.Expect(items, zoo.Query{Rect: q}).CheckScan(func(f func(geom.Item) bool) { tr.RunWindow(q, false, f, rtree.RunOptions{}) }); err != nil {
				t.Fatalf("priority=%v round=%v: %v", priority, round, err)
			}
		}
	}
}

func TestAblationPriorityShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.5
	tb := AblationPriority(cfg)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows[:2] { // the adversarial probe datasets
		with := parsePct(t, row[1])
		without := parsePct(t, row[2])
		h := parsePct(t, row[3])
		// Both corner-transform kd variants must be an order of magnitude
		// below H on the adversarial data, and the priority leaves cost at
		// most a small constant on these (near-point) inputs.
		if with >= h/3 || without >= h/3 {
			t.Errorf("%s: kd variants (%v%%, %v%%) should be far below H (%v%%)",
				row[0], with, without, h)
		}
		if with > 5*without+5 {
			t.Errorf("%s: priority overhead too large: %v%% vs %v%%", row[0], with, without)
		}
	}
}

func TestAblationRoundToBShape(t *testing.T) {
	tb := AblationRoundToB(tinyCfg())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	rounded := parsePct(t, tb.Rows[0][1])
	exact := parsePct(t, tb.Rows[1][1])
	if rounded < exact {
		t.Errorf("round-to-B fill %.1f%% should be >= exact-halves %.1f%%", rounded, exact)
	}
	if rounded < 95 {
		t.Errorf("round-to-B fill %.1f%% too low", rounded)
	}
}

func TestAblationCacheShape(t *testing.T) {
	tb := AblationCache(tinyCfg())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var vals [2][2]float64
	for i, row := range tb.Rows {
		for j := 0; j < 2; j++ {
			var v float64
			if _, err := fmtSscan(row[j+1], &v); err != nil {
				t.Fatal(err)
			}
			vals[i][j] = v
		}
	}
	// Pinned: blocks read == leaf blocks. Uncached: strictly more, but
	// within a small factor (footnote 5: the cache matters little).
	if vals[0][0] != vals[0][1] {
		t.Errorf("pinned reads %.1f != leaves %.1f", vals[0][0], vals[0][1])
	}
	if vals[1][0] < vals[1][1] {
		t.Errorf("uncached reads %.1f below leaf count %.1f", vals[1][0], vals[1][1])
	}
	if vals[1][0] > 3*vals[1][1]+20 {
		t.Errorf("uncached reads %.1f unreasonably above leaves %.1f", vals[1][0], vals[1][1])
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

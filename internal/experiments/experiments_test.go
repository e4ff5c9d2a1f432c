package experiments

import (
	"strconv"
	"strings"
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/workload"
)

// tinyCfg keeps experiment smoke tests fast.
func tinyCfg() Config {
	return Config{Scale: 0.02, Queries: 10, Seed: 7}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v
}

func parseThousands(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(strings.ReplaceAll(s, ",", ""), 10, 64)
	if err != nil {
		t.Fatalf("bad int %q: %v", s, err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "n",
	}
	out := tb.Render()
	for _, want := range []string{"=== x: demo ===", "a", "bee", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtInt(1234567); got != "1,234,567" {
		t.Errorf("fmtInt = %q", got)
	}
	if got := fmtInt(999); got != "999" {
		t.Errorf("fmtInt = %q", got)
	}
	if got := fmtInt(1000); got != "1,000" {
		t.Errorf("fmtInt = %q", got)
	}
}

func TestFig9ShapeAndOrdering(t *testing.T) {
	// The I/O ordering H < PR < TGS needs n > M so that PR actually runs
	// its external rounds (at n <= M the PR loader degenerates to a single
	// in-memory pass and is cheaper than H's mandatory sort).
	cfg := tinyCfg()
	cfg.Scale = 0.15 // n = 18000 > externalM = 16384
	tb := Fig9(cfg)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	io := map[string]uint64{}
	for _, row := range tb.Rows {
		io[row[0]] = parseThousands(t, row[3]) // eastern I/O
	}
	// Figure 9 ordering: H <= H4 < PR < TGS (H and H4 are near-identical).
	if !(io["H"] < io["PR"] && io["PR"] < io["TGS"]) {
		t.Errorf("fig9 I/O ordering violated: %v", io)
	}
	if io["TGS"] < 2*io["PR"] {
		t.Errorf("TGS should be far above PR: %v", io)
	}
}

func TestFig10MonotoneInN(t *testing.T) {
	tb := Fig10(tinyCfg())
	for _, row := range tb.Rows {
		prev := uint64(0)
		for _, cell := range row[1:] {
			v := parseThousands(t, cell)
			if v < prev {
				t.Errorf("%s: I/O not monotone in n: %v", row[0], row)
			}
			prev = v
		}
	}
}

func TestFig12AllNearOptimal(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.05
	tb := Fig12(cfg)
	for _, row := range tb.Rows {
		var pcts []float64
		for i, cell := range row[2:] {
			pct := parsePct(t, cell)
			// Costs can never beat the reporting lower bound. Absolute
			// levels at tiny scale are dominated by boundary leaves, so
			// the paper's "within 10% of T/B" is checked by the full-scale
			// prbench run, not here.
			if pct < 99 {
				t.Errorf("fig12 %s %s: %v%% below the lower bound", row[0], tb.Columns[i+2], pct)
			}
			pcts = append(pcts, pct)
		}
		// On TIGER-like data all four trees stay in the same regime: no
		// tree an order of magnitude worse than the best.
		min, max := pcts[0], pcts[0]
		for _, p := range pcts {
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		if max > 10*min {
			t.Errorf("fig12 %s: spread too wide: %v", row[0], pcts)
		}
	}
}

func TestFig15SizeExtremesFavorExtentAware(t *testing.T) {
	// The extent-aware loaders (H4, and PR at production scale) beat the
	// extent-blind H on large rectangles. The effect needs enough leaves
	// that the per-leaf center span is small against the query side, so
	// this checks a single size(0.2) dataset at n=200k with the two
	// Hilbert loaders only (the full four-way figure at scale is run by
	// cmd/prbench and recorded in EXPERIMENTS.md).
	if testing.Short() {
		t.Skip("needs n=200k")
	}
	items := dataset.Size(200000, 0.2, 7)
	queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, 20, 8)
	h := measureQueries(loadTree(bulk.LoaderHilbert, items, bulk.Options{}), queries)
	h4 := measureQueries(loadTree(bulk.LoaderHilbert4D, items, bulk.Options{}), queries)
	if h4.Pct >= h.Pct {
		t.Errorf("size(0.2): H4 (%.0f%%) should beat H (%.0f%%)", h4.Pct, h.Pct)
	}
}

func TestFig15SkewedPRFlat(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.05
	tb := Fig15Skewed(cfg)
	cols := map[string]int{}
	for i, c := range tb.Columns {
		cols[c] = i
	}
	first := parsePct(t, tb.Rows[0][cols["PR"]])
	lastRow := tb.Rows[len(tb.Rows)-1]
	last := parsePct(t, lastRow[cols["PR"]])
	// PR's bulk-loading is order-invariant: cost at c=9 within 40% of c=1.
	if last > first*1.4+10 {
		t.Errorf("PR not flat under skew: %.0f%% -> %.0f%%", first, last)
	}
	// H degrades: at c=9 it must be clearly worse than PR.
	hLast := parsePct(t, lastRow[cols["H"]])
	if hLast <= last {
		t.Errorf("skewed(9): H (%.0f%%) should be worse than PR (%.0f%%)", hLast, last)
	}
}

func TestTable1PRWinsBigOnCluster(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.25 // cluster effect needs some size
	tb := Table1(cfg)
	frac := map[string]float64{}
	for _, row := range tb.Rows {
		frac[row[0]] = parsePct(t, row[2])
	}
	// The Hilbert trees collapse on CLUSTER (paper: 37% and 94%; at our
	// scale they saturate near 100%), while PR stays an order of magnitude
	// lower. TGS also does well at small cluster counts, so it is not
	// compared against PR here.
	if frac["PR"] >= frac["H"]/3 || frac["PR"] >= frac["H4"]/3 {
		t.Errorf("PR should be far below the Hilbert trees on CLUSTER: %v", frac)
	}
	if frac["PR"] > 25 {
		t.Errorf("PR visits %.1f%% of leaves on CLUSTER, want small", frac["PR"])
	}
}

func TestTheorem3Shape(t *testing.T) {
	cfg := tinyCfg()
	cfg.Scale = 0.5
	tb := Theorem3(cfg)
	if strings.Contains(tb.Notes, "WARNING") {
		t.Fatalf("probes reported results: %s", tb.Notes)
	}
	frac := map[string]float64{}
	for _, row := range tb.Rows {
		frac[row[0]] = parsePct(t, row[2])
	}
	// H and H4 visit essentially all leaves; PR visits a small fraction.
	if frac["H"] < 60 {
		t.Errorf("H should visit most leaves on the worst case, got %.0f%%", frac["H"])
	}
	if frac["PR"] > frac["H"]/3 {
		t.Errorf("PR (%.0f%%) should be far below H (%.0f%%)", frac["PR"], frac["H"])
	}
}

func TestLemma2ConstantBounded(t *testing.T) {
	cfg := tinyCfg()
	tb := Lemma2Check(cfg)
	if strings.Contains(tb.Notes, "WARNING") {
		t.Fatalf("probes reported results: %s", tb.Notes)
	}
	var consts []float64
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		consts = append(consts, v)
	}
	for _, c := range consts {
		if c > 20 {
			t.Errorf("lemma2 constant %v too large", c)
		}
	}
	// The constant must not blow up with N (allow mild growth from the
	// T=0 additive term).
	if consts[len(consts)-1] > 3*consts[0]+5 {
		t.Errorf("lemma2 constant grows with N: %v", consts)
	}
}

func TestUtilizationTable(t *testing.T) {
	tb := Utilization(tinyCfg())
	for _, row := range tb.Rows {
		fill := parsePct(t, row[1])
		if fill < 90 {
			t.Errorf("%s: leaf fill %.1f%% too low", row[0], fill)
		}
	}
}

func TestMeasureQueriesZeroOutput(t *testing.T) {
	items := dataset.Size(2000, 0.001, 1)
	tr := loadTree(bulk.LoaderPR, items, bulk.Options{Fanout: 16})
	// A far-away query: zero output, Pct = +Inf handled.
	c := measureQueries(tr, []geom.Rect{geom.NewRect(5, 5, 6, 6)})
	if c.AvgResults != 0 {
		t.Fatal("expected zero results")
	}
	if got := fmtPct(c.Pct); got != "inf" {
		t.Errorf("fmtPct(inf) = %q", got)
	}
}

func TestQueryFigureTBPositive(t *testing.T) {
	items := dataset.Eastern(3000, 3)
	qs := workload.Squares(geom.ItemsMBR(items), 0.01, 5, 4)
	c := measureQueries(loadTree(bulk.LoaderHilbert, items, bulk.Options{}), qs)
	if c.AvgResults <= 0 || c.AvgLeaves <= 0 {
		t.Errorf("degenerate measurement: %+v", c)
	}
	if c.Pct < 99 {
		t.Errorf("cost below the reporting lower bound: %+v", c)
	}
}

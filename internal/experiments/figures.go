package experiments

import (
	"fmt"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/workload"
)

// Fig9 reproduces Figure 9: bulk-loading cost (block I/Os and wall time)
// of H/H4, PR and TGS on the Western and Eastern TIGER stand-ins. The
// paper's shape: H and H4 cheapest, PR ~2.5x H in I/Os, TGS ~4.5x PR; the
// table's note puts the measured PR/H ratios beside the paper's.
func Fig9(cfg Config) Table {
	cfg = cfg.normalized()
	east := dataset.Eastern(cfg.n(120000), cfg.Seed)
	west := dataset.Western(cfg.n(120000), cfg.Seed)
	t := Table{
		ID:      "fig9",
		Title:   "Bulk-loading performance on TIGER-like data (I/Os and seconds)",
		Columns: []string{"tree", "western I/O", "western time", "eastern I/O", "eastern time"},
	}
	cost := map[bulk.Loader][2]uint64{}
	for _, l := range paperLoaders {
		rw := buildTree(l, west)
		re := buildTree(l, east)
		cost[l] = [2]uint64{rw.io.Total(), re.io.Total()}
		t.Rows = append(t.Rows, []string{
			l.String(),
			fmtInt(rw.io.Total()), fmtDur(rw.dur),
			fmtInt(re.io.Total()), fmtDur(re.dur),
		})
	}
	pr, h := cost[bulk.LoaderPR], cost[bulk.LoaderHilbert]
	t.Notes = fmt.Sprintf("paper: H=H4 < PR (~2.5x H) < TGS (~4.5x PR) in I/Os; measured PR = %.2fx H (western), %.2fx H (eastern)",
		float64(pr[0])/float64(h[0]), float64(pr[1])/float64(h[1]))
	return t
}

// Fig10 reproduces Figure 10: bulk-loading I/Os on the five Eastern
// prefixes of increasing size; H/H4/PR scale linearly, TGS slightly
// superlinearly.
func Fig10(cfg Config) Table {
	cfg = cfg.normalized()
	regions := dataset.EasternRegions(cfg.n(120000), cfg.Seed)
	t := Table{
		ID:    "fig10",
		Title: "Bulk-loading I/Os vs dataset size (Eastern prefixes)",
		Notes: "paper: near-linear growth for H/H4/PR; TGS slightly superlinear",
	}
	t.Columns = []string{"tree"}
	for _, r := range regions {
		t.Columns = append(t.Columns, fmt.Sprintf("n=%d", len(r)))
	}
	for _, l := range paperLoaders {
		row := []string{l.String()}
		for _, items := range regions {
			res := buildTree(l, items)
			row = append(row, fmtInt(res.io.Total()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig11 reproduces Figure 11: TGS bulk-loading time depends on the data
// distribution (size and aspect sweeps), unlike the other loaders.
func Fig11(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(60000)
	t := Table{
		ID:      "fig11",
		Title:   "TGS bulk-loading cost across synthetic distributions",
		Columns: []string{"dataset", "TGS I/O", "TGS time", "PR I/O (reference)"},
		Notes:   "paper: TGS cost varies strongly with distribution; PR does not",
	}
	addRow := func(name string, items []geom.Item) {
		rt := buildTree(bulk.LoaderTGS, items)
		rp := buildTree(bulk.LoaderPR, items)
		t.Rows = append(t.Rows, []string{name, fmtInt(rt.io.Total()), fmtDur(rt.dur), fmtInt(rp.io.Total())})
	}
	for i, ms := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2} {
		addRow(fmt.Sprintf("size(%g)", ms), dataset.Size(n, ms, cfg.Seed+int64(i)))
	}
	for i, a := range []float64{10, 100, 1000, 10000, 100000} {
		addRow(fmt.Sprintf("aspect(%g)", a), dataset.Aspect(n, a, cfg.Seed+100+int64(i)))
	}
	return t
}

// queryFigure is the shared engine of Figures 12-14: build all four trees
// once per dataset and measure square-window query cost.
func queryFigure(id, title string, cfg Config, items []geom.Item, areas []float64) Table {
	opt := cfg.bulkOptions()
	world := geom.ItemsMBR(items)
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"query area", "T/B"},
		Notes:   "cost = 100% means exactly T/B leaf blocks read (the lower bound)",
	}
	for _, l := range paperLoaders {
		t.Columns = append(t.Columns, l.String())
	}
	trees := make(map[bulk.Loader]*rtree.Tree)
	for _, l := range paperLoaders {
		trees[l] = loadTree(l, items, opt)
	}
	for qi, area := range areas {
		queries := workload.Squares(world, area, cfg.Queries, cfg.Seed+int64(qi))
		row := []string{fmt.Sprintf("%.2f%%", area*100), ""}
		var tb float64
		for _, l := range paperLoaders {
			c := measureQueries(trees[l], queries)
			tb = c.AvgResults / float64(trees[l].Config().Fanout)
			row = append(row, fmtPct(c.Pct))
		}
		row[1] = fmt.Sprintf("%.0f", tb)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig12 reproduces Figure 12: query cost vs query size on Western data.
func Fig12(cfg Config) Table {
	cfg = cfg.normalized()
	items := dataset.Western(cfg.n(120000), cfg.Seed)
	return queryFigure("fig12",
		"Query cost vs query size, Western TIGER-like data (100% = T/B)",
		cfg, items, []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02})
}

// Fig13 reproduces Figure 13: query cost vs query size on Eastern data.
func Fig13(cfg Config) Table {
	cfg = cfg.normalized()
	items := dataset.Eastern(cfg.n(120000), cfg.Seed)
	return queryFigure("fig13",
		"Query cost vs query size, Eastern TIGER-like data (100% = T/B)",
		cfg, items, []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02})
}

// Fig14 reproduces Figure 14: query cost at fixed 1% query area across the
// five Eastern prefixes.
func Fig14(cfg Config) Table {
	cfg = cfg.normalized()
	regions := dataset.EasternRegions(cfg.n(120000), cfg.Seed)
	opt := cfg.bulkOptions()
	t := Table{
		ID:      "fig14",
		Title:   "Query cost (1% squares) vs dataset size, Eastern prefixes",
		Columns: []string{"n", "T/B"},
		Notes:   "paper: all four trees within ~10% of T/B on TIGER data",
	}
	for _, l := range paperLoaders {
		t.Columns = append(t.Columns, l.String())
	}
	for ri, items := range regions {
		world := geom.ItemsMBR(items)
		queries := workload.Squares(world, 0.01, cfg.Queries, cfg.Seed+int64(ri))
		row := []string{fmt.Sprintf("%d", len(items)), ""}
		var tb float64
		for _, l := range paperLoaders {
			tr := loadTree(l, items, opt)
			c := measureQueries(tr, queries)
			tb = c.AvgResults / float64(tr.Config().Fanout)
			row = append(row, fmtPct(c.Pct))
		}
		row[1] = fmt.Sprintf("%.0f", tb)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15Size reproduces the left panel of Figure 15: 1%-area square queries
// on size(max_side) data. As rectangles grow, PR and H4 stay near T/B
// while H (extent-blind) and TGS degrade.
func Fig15Size(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(100000)
	opt := cfg.bulkOptions()
	t := Table{
		ID:      "fig15size",
		Title:   "Query cost on SIZE(max_side), 1% squares (100% = T/B)",
		Columns: []string{"max_side", "T/B"},
		Notes:   "paper: PR,H4 << TGS << H for large rectangles",
	}
	for _, l := range paperLoaders {
		t.Columns = append(t.Columns, l.String())
	}
	for i, ms := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2} {
		items := dataset.Size(n, ms, cfg.Seed+int64(i))
		queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, cfg.Queries, cfg.Seed+int64(i))
		row := []string{fmt.Sprintf("%g", ms), ""}
		var tb float64
		for _, l := range paperLoaders {
			tr := loadTree(l, items, opt)
			c := measureQueries(tr, queries)
			tb = c.AvgResults / float64(tr.Config().Fanout)
			row = append(row, fmtPct(c.Pct))
		}
		row[1] = fmt.Sprintf("%.0f", tb)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15Aspect reproduces the middle panel of Figure 15: queries on
// aspect(a) data. With growing aspect ratio PR and H4 stay near optimal
// while TGS and especially H degrade.
func Fig15Aspect(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(100000)
	opt := cfg.bulkOptions()
	t := Table{
		ID:      "fig15aspect",
		Title:   "Query cost on ASPECT(a), 1% squares (100% = T/B)",
		Columns: []string{"a", "T/B"},
		Notes:   "paper: PR ~ H4 near optimal; H worst, TGS between",
	}
	for _, l := range paperLoaders {
		t.Columns = append(t.Columns, l.String())
	}
	for i, a := range []float64{10, 100, 1000, 10000, 100000} {
		items := dataset.Aspect(n, a, cfg.Seed+int64(i))
		queries := workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, cfg.Queries, cfg.Seed+int64(i))
		row := []string{fmt.Sprintf("%g", a), ""}
		var tb float64
		for _, l := range paperLoaders {
			tr := loadTree(l, items, opt)
			c := measureQueries(tr, queries)
			tb = c.AvgResults / float64(tr.Config().Fanout)
			row = append(row, fmtPct(c.Pct))
		}
		row[1] = fmt.Sprintf("%.0f", tb)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15Skewed reproduces the right panel of Figure 15: queries on
// skewed(c) point data with queries skewed the same way. PR is invariant
// (it only compares coordinates within an axis); the others degrade.
func Fig15Skewed(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(100000)
	opt := cfg.bulkOptions()
	t := Table{
		ID:      "fig15skewed",
		Title:   "Query cost on SKEWED(c), skewed 1% squares (100% = T/B)",
		Columns: []string{"c", "T/B"},
		Notes:   "paper: PR flat across c (order-invariance); others degrade",
	}
	for _, l := range paperLoaders {
		t.Columns = append(t.Columns, l.String())
	}
	for i, c := range []int{1, 3, 5, 7, 9} {
		items := dataset.Skewed(n, c, cfg.Seed+int64(i))
		queries := workload.SkewedSquares(0.01, c, cfg.Queries, cfg.Seed+int64(i))
		row := []string{fmt.Sprintf("%d", c), ""}
		var tb float64
		for _, l := range paperLoaders {
			tr := loadTree(l, items, opt)
			qc := measureQueries(tr, queries)
			tb = qc.AvgResults / float64(tr.Config().Fanout)
			row = append(row, fmtPct(qc.Pct))
		}
		row[1] = fmt.Sprintf("%.0f", tb)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 3) on the simulated disk substrate. Each experiment
// is a function returning a Table whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Dataset sizes are scaled down from the paper's 10-16.7 million
// rectangles (Config.Scale multiplies the defaults) so the full suite runs
// on one machine in minutes; the shapes — who wins, by what factor, where
// the crossovers fall — are what the harness is after.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"prtree/internal/bulk"
	"prtree/internal/extmem"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// Config tunes the whole suite.
type Config struct {
	// Scale multiplies default dataset sizes (default 1.0; the defaults
	// correspond to ~120k-rectangle inputs).
	Scale float64
	// Queries is the number of window queries per measurement point
	// (paper: 100).
	Queries int
	// Workers bounds the parallelism of the in-memory builds (0 or 1 =
	// serial): every query table's loads and the pseudo-PR-trees of the
	// Lemma 2 tables. The external builds of fig9–11 are serial. Counted
	// cells are identical at any setting; only wall-clock changes.
	Workers int
	// Seed drives every generator.
	Seed int64
}

// bulkOptions returns the loader options every experiment shares.
func (c Config) bulkOptions() bulk.Options {
	return bulk.Options{Parallelism: c.Workers}
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Seed == 0 {
		c.Seed = 2004 // SIGMOD 2004
	}
	return c
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Table is one experiment's result in paper-style rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// buildResult captures one bulk-load run.
type buildResult struct {
	tree *rtree.Tree
	io   storage.Stats
	dur  time.Duration
}

// externalM is M, in records, for the tables that price the external
// construction (fig9–11). Smaller than the library default, so that even
// the smallest dataset of those tables at scale 1 exceeds it and every
// loader runs its external passes — otherwise PR's in-memory shortcut puts
// a discontinuity into the Figure 10 scaling series. BENCH_fig12.json is
// recorded at it.
const externalM = 1 << 14

// buildTree bulk-loads items with the given loader's external construction
// (package extmem, serial) at M = externalM on a fresh disk, measuring the build's block I/O and
// wall time. Writing the input file is excluded from the measurement (the
// paper's inputs pre-exist on disk).
func buildTree(l bulk.Loader, items []geom.Item) buildResult {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, -1)
	in := extmem.NewItemFileFrom(disk, items)
	disk.ResetStats()
	start := time.Now()
	tree := extmem.Load(l, pager, in, extmem.Options{MemoryItems: externalM})
	dur := time.Since(start)
	return buildResult{tree: tree, io: disk.Stats(), dur: dur}
}

// loadTree builds items with the given loader in memory onto a fresh disk,
// as Tree and Dynamic do: every query table measures the tree the library
// ships, PR's being the exact construction of the paper's §2.1.
func loadTree(l bulk.Loader, items []geom.Item, opt bulk.Options) *rtree.Tree {
	return bulk.LoadSlice(l, storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), items, opt)
}

// queryCost measures a query set like the paper: internal nodes are
// cached, so the reported cost is leaf blocks read; the headline number is
// 100 * (blocks read) / (T/B), the percentage above the reporting lower
// bound.
type queryCost struct {
	AvgLeaves  float64 // leaf blocks read per query
	AvgResults float64 // T per query
	Pct        float64 // 100 * totalLeaves / total(T/B)
	LeafFrac   float64 // fraction of all leaves visited (Table 1 metric)
}

func measureQueries(tree *rtree.Tree, queries []geom.Rect) queryCost {
	fanout := tree.Config().Fanout
	var totalLeaves, totalResults int
	for _, q := range queries {
		st, _ := tree.RunWindow(q, false, nil, rtree.RunOptions{})
		totalLeaves += st.LeavesVisited
		totalResults += st.Results
	}
	nq := float64(len(queries))
	out := queryCost{
		AvgLeaves:  float64(totalLeaves) / nq,
		AvgResults: float64(totalResults) / nq,
	}
	if totalResults > 0 {
		out.Pct = 100 * float64(totalLeaves) / (float64(totalResults) / float64(fanout))
	} else {
		out.Pct = math.Inf(1)
	}
	totalLeafNodes := 0
	tree.Walk(func(_ storage.PageID, _ int, isLeaf bool, _ []geom.Item) {
		if isLeaf {
			totalLeafNodes++
		}
	})
	if totalLeafNodes > 0 {
		out.LeafFrac = out.AvgLeaves / float64(totalLeafNodes)
	}
	return out
}

func fmtInt(v uint64) string {
	s := fmt.Sprintf("%d", v)
	// Insert thousands separators for readability.
	n := len(s)
	if n <= 3 {
		return s
	}
	var b strings.Builder
	pre := n % 3
	if pre > 0 {
		b.WriteString(s[:pre])
	}
	for i := pre; i < n; i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

func fmtPct(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f%%", v)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// paperLoaders is the comparison set of the paper in presentation order.
var paperLoaders = []bulk.Loader{bulk.LoaderHilbert, bulk.LoaderHilbert4D, bulk.LoaderPR, bulk.LoaderTGS}

// Experiment names one table of the suite and the function that builds it.
type Experiment struct {
	ID  string
	Run func(Config) Table
}

// All lists every experiment in paper order; cmd/prbench runs, lists and
// selects from it.
var All = []Experiment{
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15size", Fig15Size},
	{"fig15aspect", Fig15Aspect},
	{"fig15skewed", Fig15Skewed},
	{"table1", Table1},
	{"theorem3", Theorem3},
	{"lemma2", Lemma2Check},
	{"utilization", Utilization},
	{"ablation-priority", AblationPriority},
	{"ablation-roundb", AblationRoundToB},
	{"ablation-cache", AblationCache},
	{"futurework", FutureWorkUpdates},
}

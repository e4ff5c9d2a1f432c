package experiments

import (
	"fmt"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/pseudo"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// buildFromPseudo assembles a real R-tree whose every level is the leaf
// set of an in-memory pseudo-tree over the previous level — the PR-tree
// construction — with the priority leaves and round-to-B refinements
// switchable for ablation.
func buildFromPseudo(items []geom.Item, fanout int, priority, roundToB bool) *rtree.Tree {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	b := rtree.NewBuilder(storage.NewPager(disk, -1), rtree.Config{Fanout: fanout})
	fanout = b.Fanout()
	build := pseudo.BuildKDOnly
	if priority {
		build = func(items []geom.Item, b int, roundToB bool) *pseudo.Tree {
			return pseudo.Build(items, b, roundToB, 1)
		}
	}

	level := make([]rtree.ChildEntry, 0)
	for _, lg := range build(items, fanout, roundToB).Leaves() {
		level = append(level, b.WriteLeaf(lg.Items))
	}
	height := 1
	for len(level) > 1 {
		if len(level) <= fanout {
			return b.Finish(b.WriteInternal(level), height+1)
		}
		entries := make([]geom.Item, len(level))
		for i, e := range level {
			entries[i] = geom.Item{Rect: e.Rect, ID: uint32(e.Page)}
		}
		next := level[:0:0]
		for _, lg := range build(entries, fanout, roundToB).Leaves() {
			children := make([]rtree.ChildEntry, len(lg.Items))
			for i, it := range lg.Items {
				children[i] = rtree.ChildEntry{Rect: it.Rect, Page: storage.PageID(it.ID)}
			}
			next = append(next, b.WriteInternal(children))
		}
		level = next
		height++
	}
	return b.Finish(level[0], height)
}

// AblationPriority isolates the paper's central design choice: the same
// corner-transform kd construction with and without priority leaves, on
// the adversarial probe datasets and a high-aspect rectangle workload.
//
// The measured finding (recorded in EXPERIMENTS.md): the order-of-magnitude
// robustness against the adversarial inputs comes from the corner-transform
// kd partition itself, and the kd-only variant reads 1.3–2.1× fewer leaves
// than the full PR-tree on all three inputs, because on (near-)point data a
// kd-tree is already good (the paper's own remark about kdB-trees). No
// input measured yet shows the worst-case separation; what the priority
// leaves buy so far is the *proof*: Lemma 2's charging argument, and with
// it the guarantee for arbitrary rectangle inputs, needs them.
func AblationPriority(cfg Config) Table {
	cfg = cfg.normalized()
	t := Table{
		ID:      "ablation-priority",
		Title:   "Ablation: PR-tree with vs without priority leaves",
		Columns: []string{"dataset", "with priority", "kd only", "H (reference)"},
		Notes:   "% of leaves visited; both kd variants stay an order of magnitude below H — see EXPERIMENTS.md for the interpretation",
	}
	type probeSet struct {
		name    string
		items   []geom.Item
		queries []geom.Rect
	}
	n := cfg.n(100000)
	sets := []probeSet{
		{name: "worstcase", items: dataset.WorstCase(n, 113)},
		{name: "cluster", items: dataset.Cluster(n, cfg.Seed)},
		{
			name:    "aspect(1e4)",
			items:   dataset.Aspect(n, 1e4, cfg.Seed),
			queries: workload.Squares(geom.NewRect(0, 0, 1, 1), 0.01, cfg.Queries, cfg.Seed),
		},
	}
	for i := 0; i < cfg.Queries; i++ {
		sets[0].queries = append(sets[0].queries, dataset.WorstCaseProbe(n, 113, i))
		sets[1].queries = append(sets[1].queries, dataset.ClusterProbe(cfg.Seed+int64(i)))
	}
	for _, set := range sets {
		with := buildFromPseudo(set.items, 113, true, true)
		without := buildFromPseudo(set.items, 113, false, true)
		cw := measureQueries(with, set.queries)
		cwo := measureQueries(without, set.queries)
		ch := measureQueries(loadTree(bulk.LoaderHilbert, set.items, cfg.bulkOptions()), set.queries)
		t.Rows = append(t.Rows, []string{
			set.name,
			fmt.Sprintf("%.1f%%", 100*cw.LeafFrac),
			fmt.Sprintf("%.1f%%", 100*cwo.LeafFrac),
			fmt.Sprintf("%.1f%%", 100*ch.LeafFrac),
		})
	}
	return t
}

// AblationRoundToB measures the paper's "round divisions to multiples of
// B" refinement: it trades nothing in query cost for near-100% leaf fill.
func AblationRoundToB(cfg Config) Table {
	cfg = cfg.normalized()
	items := dataset.Eastern(cfg.n(100000), cfg.Seed)
	queries := workload.Squares(geom.ItemsMBR(items), 0.01, cfg.Queries, cfg.Seed)
	t := Table{
		ID:      "ablation-roundb",
		Title:   "Ablation: kd divisions rounded to multiples of B vs exact halves",
		Columns: []string{"variant", "leaf fill", "leaves", "query cost"},
		Notes:   "rounding keeps leaves full at no query cost (paper §2.1, construction refinement)",
	}
	for _, round := range []bool{true, false} {
		tr := buildFromPseudo(items, 113, true, round)
		fill, _ := tr.Utilization()
		c := measureQueries(tr, queries)
		name := "round-to-B"
		if !round {
			name = "exact halves"
		}
		leaves := 0
		tr.Walk(func(_ storage.PageID, _ int, isLeaf bool, _ []geom.Item) {
			if isLeaf {
				leaves++
			}
		})
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f%%", 100*fill),
			fmt.Sprintf("%d", leaves),
			fmtPct(c.Pct),
		})
	}
	return t
}

// AblationCache reproduces the paper's footnote 5: with all internal nodes
// cached the query cost is the leaf fetches; disabling the cache adds the
// internal-node reads, 5.35 a query beside 22.4 leaf reads at the recorded
// scale (24 % more blocks), and leaves the leaf reads as they are.
func AblationCache(cfg Config) Table {
	cfg = cfg.normalized()
	items := dataset.Eastern(cfg.n(100000), cfg.Seed)
	queries := workload.Squares(geom.ItemsMBR(items), 0.01, cfg.Queries, cfg.Seed)
	t := Table{
		ID:      "ablation-cache",
		Title:   "Ablation: internal-node cache on vs off (paper footnote 5)",
		Columns: []string{"cache", "avg blocks read", "avg leaf blocks"},
		Notes:   "without the cache a query also reads the internal nodes on its paths, a quarter more blocks at the recorded scale; its leaf reads, the paper's metric, do not change",
	}
	// Both variants run on pagers without an LRU (capacity 0) so every
	// uncached node access hits the disk; the first pins the internal
	// levels like the paper's setup, the second caches nothing.
	for _, pin := range []bool{true, false} {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, 0)
		tr := bulk.LoadSlice(bulk.LoaderPR, pager, items, cfg.bulkOptions())
		name := "no cache"
		if pin {
			tr.PinInternal()
			name = "internal pinned"
		}
		disk.ResetStats()
		leaves := 0
		for _, q := range queries {
			st, _ := tr.RunWindow(q, false, nil, rtree.RunOptions{})
			leaves += st.LeavesVisited
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f", float64(disk.Stats().Reads)/float64(len(queries))),
			fmt.Sprintf("%.1f", float64(leaves)/float64(len(queries))),
		})
	}
	return t
}

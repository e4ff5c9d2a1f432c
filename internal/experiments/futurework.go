package experiments

import (
	"fmt"
	"math/rand"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// queryTotals sums a query set's leaf visits and results on one structure.
type queryTotals struct{ Leaves, Results int }

func (q *queryTotals) add(leaves, results int) {
	q.Leaves += leaves
	q.Results += results
}

// pct is the paper's query metric, leaf blocks read as a percentage of T/B.
func (q queryTotals) pct() string {
	if q.Results == 0 {
		return "inf"
	}
	return fmtPct(100 * float64(q.Leaves) / (float64(q.Results) / float64(rtree.MaxFanout(storage.DefaultBlockSize))))
}

// churnRound is one futurework row before formatting.
type churnRound struct {
	Guttman, RStar, Rebuilt, LogMethod queryTotals
}

// FutureWorkUpdates runs the experiment the paper's Section 4 leaves for
// future work: bulk-load a PR-tree, then apply heuristic update algorithms
// (Guttman quadratic and the R*-tree heuristics, see heuristics.go) under
// churn and watch the query performance drift, compared against rebuilding
// from scratch and against the logarithmic method that provably keeps the
// optimal bound.
//
// Each round deletes a random 25% of the live items and inserts fresh
// replacements. The reported number is the paper's query metric (leaf
// blocks read as a percentage of T/B) on fixed 1% window queries.
func FutureWorkUpdates(cfg Config) Table {
	t := Table{
		ID:      "futurework",
		Title:   "Section 4 future work: PR-tree query cost under heuristic updates",
		Columns: []string{"churn rounds", "PR+Guttman", "PR+R*", "PR rebuilt", "log method"},
		Notes:   "25% of items replaced per round; rebuilt = fresh bulk-load of the same live set",
	}
	for round, r := range futureWork(cfg) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", round),
			r.Guttman.pct(), r.RStar.pct(), r.Rebuilt.pct(), r.LogMethod.pct(),
		})
	}
	return t
}

// futureWork runs the churn rounds and returns each round's query totals,
// round 0 being the freshly loaded trees.
func futureWork(cfg Config) []churnRound {
	cfg = cfg.normalized()
	n := cfg.n(60000)
	const rounds = 4

	base := dataset.Eastern(n, cfg.Seed)
	queries := workload.Squares(geom.ItemsMBR(base), 0.01, cfg.Queries, cfg.Seed)
	opt := cfg.bulkOptions()
	load := func(items []geom.Item) *rtree.Tree {
		return bulk.FromItems(bulk.LoaderPR,
			storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), items, opt)
	}

	// Two heuristically updated trees over the same evolving item set, both
	// starting from the bulk-loaded PR-tree.
	loaded := load(base)
	guttman, rstar := NewHTree(loaded, false), NewHTree(loaded, true)
	logm := logmethod.New(
		storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), opt, 0)
	for _, it := range base {
		logm.Insert(it)
	}

	live := make([]geom.Item, len(base))
	copy(live, base)
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextID := uint32(n)

	var out []churnRound
	record := func() {
		rebuilt := load(live)
		var r churnRound
		for _, q := range queries {
			r.Guttman.add(guttman.Count(q))
			r.RStar.add(rstar.Count(q))
			st := rebuilt.QueryCount(q)
			r.Rebuilt.add(st.LeavesVisited, st.Results)
			lst, _ := logm.RunWindow(q, false, nil, rtree.RunOptions{})
			r.LogMethod.add(lst.LeavesVisited, lst.Results)
		}
		out = append(out, r)
	}

	record()
	for round := 1; round <= rounds; round++ {
		churn := len(live) / 4
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, victim := range live[:churn] {
			guttman.Delete(victim)
			rstar.Delete(victim)
			logm.Delete(victim)
		}
		fresh := dataset.Eastern(churn, cfg.Seed+int64(round))
		for i := range fresh {
			fresh[i].ID = nextID
			nextID++
			guttman.Insert(fresh[i])
			rstar.Insert(fresh[i])
			logm.Insert(fresh[i])
			live[i] = fresh[i]
		}
		record()
	}
	return out
}

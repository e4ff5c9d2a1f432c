// Quickstart: bulk-load a Priority R-tree and run a window query.
package main

import (
	"fmt"

	"prtree"
)

func main() {
	// A handful of city bounding boxes (minx, miny, maxx, maxy).
	items := []prtree.Item{
		{Rect: prtree.NewRect(4.85, 52.33, 4.95, 52.42), ID: 1},     // Amsterdam
		{Rect: prtree.NewRect(10.10, 56.12, 10.25, 56.20), ID: 2},   // Aarhus
		{Rect: prtree.NewRect(5.43, 51.40, 5.52, 51.47), ID: 3},     // Eindhoven
		{Rect: prtree.NewRect(-78.99, 35.93, -78.85, 36.08), ID: 4}, // Durham
		{Rect: prtree.NewRect(12.45, 55.61, 12.65, 55.73), ID: 5},   // Copenhagen
	}

	// Bulk-load with the PR-tree algorithm (worst-case optimal queries).
	tree := prtree.Bulk(items, nil)
	fmt.Printf("indexed %d rectangles, height %d, %d disk pages\n",
		tree.Len(), tree.Height(), tree.Nodes())

	// Window query: everything in western Europe, consumed as a pull
	// iterator (the v2 query surface).
	q := prtree.NewRect(0, 50, 15, 60)
	fmt.Printf("query %v:\n", q)
	var st prtree.QueryStats
	for it := range tree.Iter(prtree.Window(q).WithStats(&st)) {
		fmt.Printf("  hit id=%d rect=%v\n", it.ID, it.Rect)
	}
	fmt.Printf("visited %d nodes (%d leaf blocks) for %d results\n",
		st.NodesVisited, st.LeavesVisited, st.Results)

	// A bulk-loaded tree is read-only. Insertions and deletions go to a
	// Dynamic index (the paper's logarithmic method), which keeps the
	// worst-case query bound under updates.
	// InsertE and DeleteE return the commit error of a durable index; an
	// in-memory one never fails.
	idx := prtree.NewDynamic(nil)
	for _, it := range items {
		_ = idx.InsertE(it)
	}
	_ = idx.InsertE(prtree.Item{Rect: prtree.NewRect(8.5, 47.3, 8.6, 47.43), ID: 6}) // Zurich
	_, _ = idx.DeleteE(items[0])
	// The same Query values run on a Dynamic as on a Tree.
	hits, _ := idx.Count(prtree.Window(q))
	fmt.Printf("after update: %d rectangles, %d hits in Europe\n", idx.Len(), hits)
}

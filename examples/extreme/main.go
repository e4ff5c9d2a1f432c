// Extreme data: the headline result of the paper. On adversarial inputs —
// the CLUSTER dataset and the Theorem 3 bit-reversal grid — the heuristic
// R-trees collapse to scanning nearly every leaf while the PR-tree keeps
// its O(sqrt(N/B) + T/B) guarantee.
package main

import (
	"fmt"
	"math"

	"prtree"
	"prtree/internal/dataset"
)

func main() {
	const b = 113

	fmt.Println("--- CLUSTER: 1000-point clusters on a line, skinny probes (paper Table 1) ---")
	clItems := dataset.Cluster(100000, 1)
	probe := dataset.ClusterProbe(1)
	for _, loader := range []prtree.Loader{prtree.Hilbert, prtree.Hilbert4D, prtree.PR, prtree.TGS} {
		tree := prtree.BulkWith(loader, clItems, nil)
		var st prtree.QueryStats
		_ = tree.Run(prtree.Window(probe).WithStats(&st), nil)
		leaves := (tree.Len() + b - 1) / b
		fmt.Printf("%-4v visited %5d of %d leaves (%5.1f%%) for %d results\n",
			loader, st.LeavesVisited, leaves,
			100*float64(st.LeavesVisited)/float64(leaves), st.Results)
	}

	fmt.Println()
	fmt.Println("--- THEOREM 3: bit-reversal grid, zero-output line query ---")
	wcItems := dataset.WorstCase(100000, b)
	wcProbe := dataset.WorstCaseProbe(100000, b, 3)
	ref := math.Sqrt(float64(len(wcItems)) / b)
	for _, loader := range []prtree.Loader{prtree.Hilbert, prtree.Hilbert4D, prtree.PR, prtree.TGS} {
		tree := prtree.BulkWith(loader, wcItems, nil)
		var st prtree.QueryStats
		_ = tree.Run(prtree.Window(wcProbe).WithStats(&st), nil)
		leaves := (tree.Len() + b - 1) / b
		fmt.Printf("%-4v visited %5d of %d leaves (%5.1f%%) reporting %d  [sqrt(N/B)=%.0f]\n",
			loader, st.LeavesVisited, leaves,
			100*float64(st.LeavesVisited)/float64(leaves), st.Results, ref)
	}
	fmt.Println("\nthe PR-tree is the only variant whose cost tracks sqrt(N/B) instead of N/B")
}

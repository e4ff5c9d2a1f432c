// Dynamic indexing with the logarithmic method: the paper's proposal for
// supporting insertions and deletions while keeping the PR-tree's
// worst-case optimal query bound (Sections 1.2 and 4).
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"prtree"
)

func main() {
	out := flag.String("out", "", "also persist a file-backed index at this path")
	flag.Parse()

	idx := prtree.NewDynamic(nil)
	rng := rand.New(rand.NewSource(99))

	// A feed of moving-object bounding boxes: insert 30k, then churn.
	fmt.Println("inserting 30000 rectangles...")
	items := make([]prtree.Item, 30000)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = prtree.Item{
			Rect: prtree.NewRect(x, y, x+0.002, y+0.002),
			ID:   uint32(i),
		}
		check(idx.InsertE(items[i]))
	}
	io := idx.IOStats()
	fmt.Printf("amortized insert cost: %.3f block I/Os per item\n",
		float64(io.Total())/30000)

	fmt.Println("\nchurn: delete 10000, insert 10000 replacements...")
	idx.ResetIOStats()
	for i := 0; i < 10000; i++ {
		_, err := idx.DeleteE(items[i])
		check(err)
		x, y := rng.Float64(), rng.Float64()
		check(idx.InsertE(prtree.Item{
			Rect: prtree.NewRect(x, y, x+0.002, y+0.002),
			ID:   uint32(100000 + i),
		}))
	}
	fmt.Printf("live items: %d\n", idx.Len())

	q := prtree.NewRect(0.4, 0.4, 0.5, 0.5)
	st := idx.Query(q, nil)
	fmt.Printf("query %v: %d results, %d leaf blocks across levels\n",
		q, st.Results, st.LeavesVisited)

	// Compact before a read-heavy phase: one static PR-tree again.
	check(idx.FlushE())
	st = idx.Query(q, nil)
	fmt.Printf("after flush: %d results, %d leaf blocks (single level)\n",
		st.Results, st.LeavesVisited)

	if *out == "" {
		return
	}

	// The same index, durable: every InsertE commits to the write-ahead
	// log, and the one that fills the buffer carries it into the levels
	// while readers keep serving snapshot-isolated pages.
	fmt.Printf("\npersisting a file-backed index at %s...\n", *out)
	d, err := prtree.CreateDynamic(*out, nil)
	check(err)
	for _, it := range items {
		check(d.InsertE(it))
	}
	cs := d.CompactionStats()
	fmt.Printf("merges: %d carries, %d pages written, write amp %.2f\n",
		cs.MergesCompleted, cs.PagesRewritten, cs.WriteAmplification)
	check(d.Close())
	fmt.Println("closed; reopen with prtree.OpenDynamic or compact with `prtool -index", *out, "compact`")
}

// check stops the example on a failed commit. An in-memory index never
// fails one; a file-backed index can, on a full or failing disk.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

package extsort

import (
	"fmt"
	"testing"

	"prtree/internal/storage"
)

// BenchmarkExtSort measures a multi-pass external sort end to end. The
// memory budget forces run formation plus two to three merge passes at the
// benchmark size, so both the radix run former and the loser-tree merge are
// on the measured path. Serial (workers=1) and parallel variants sort the
// same input; their block-I/O counts are identical by construction.
func BenchmarkExtSort(b *testing.B) {
	const n = 200_000
	items := randItems(n, 42)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	mem := 16 * per // small M: several merge passes
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var lastIO uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := storage.NewDisk(storage.DefaultBlockSize)
				in := storage.NewItemFileFrom(d, items)
				d.ResetStats()
				b.StartTimer()
				out := Sort(in, AxisKey(0), Config{MemoryItems: mem, Workers: workers})
				lastIO = d.Stats().Total()
				if out.Len() != n {
					b.Fatalf("lost records: %d != %d", out.Len(), n)
				}
			}
			b.ReportMetric(float64(lastIO), "blockIO/op")
		})
	}
}

package extmem

import (
	"testing"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/storage"
)

// BenchmarkExtSort measures a multi-pass external sort end to end. The
// memory budget forces run formation plus two to three merge passes at the
// benchmark size, so both the radix run former and the loser-tree merge are
// on the measured path.
func BenchmarkExtSort(b *testing.B) {
	const n = 200_000
	items := sortInput(n, 42)
	per := storage.ItemsPerBlock(storage.DefaultBlockSize)
	mem := 16 * per // small M: several merge passes
	b.ReportAllocs()
	var lastIO uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := storage.NewDisk(storage.DefaultBlockSize)
		in := NewItemFileFrom(d, items)
		d.ResetStats()
		b.StartTimer()
		out := Sort(in, bulk.AxisKey(0), mem)
		lastIO = d.Stats().Total()
		if out.Len() != n {
			b.Fatalf("lost records: %d != %d", out.Len(), n)
		}
	}
	b.ReportMetric(float64(lastIO), "blockIO/op")
}

// BenchmarkSortAxes measures what the PR and TGS loaders start with: the
// four corner-transform orderings of the benchmark's dataset (216k
// rectangles, default M of 2^16: four runs a key, one merge pass) from one
// SortKeys call, on a simulated disk. B/op (-benchmem) is dominated by the
// run-formation buffers: the chunk of decoded records, its sort arena and
// its four orders.
func BenchmarkSortAxes(b *testing.B) {
	const m = 1 << 16
	items := dataset.Western(300000, 2004)
	b.ReportAllocs()
	d := storage.NewDisk(storage.DefaultBlockSize)
	in := NewItemFileFrom(d, items)
	var lastIO uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ResetStats()
		lists := SortKeys(in, bulk.AxisKeys(), m)
		lastIO = d.Stats().Total()
		b.StopTimer()
		for _, f := range lists {
			if f.Len() != len(items) {
				b.Fatalf("lost records: %d != %d", f.Len(), len(items))
			}
			f.Free()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(lastIO), "blockIO/op")
}

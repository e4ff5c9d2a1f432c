// Command datagen writes the paper's datasets to disk as fixed 36-byte
// records (4 float64 coordinates + uint32 id, little endian) consumable by
// prtool, or as CSV for inspection.
//
// Usage:
//
//	datagen -kind tiger -n 100000 -out tiger.bin
//	datagen -kind size -param 0.01 -n 100000 -out size.csv -format csv
//
// Kinds: tiger, western, size, aspect, skewed, cluster, worstcase, uniform.
//
// -n is the number of records written for every kind but two. western
// writes 72 % of n (-n 216000 writes 155,520): the Western TIGER set is
// about 72 % of the Eastern one the paper scales from. worstcase writes
// 113·2^k records, the most of that form that fit in n (at least 113), as
// its construction needs a power-of-two number of columns of 113 rows.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/storage"
)

func main() {
	kind := flag.String("kind", "tiger", "dataset kind: tiger|western|size|aspect|skewed|cluster|worstcase|uniform")
	n := flag.Int("n", 100000, "number of rectangles (western writes 72% of n; worstcase 113·2^k, the most of that form up to n, at least 113)")
	param := flag.Float64("param", 0, "family parameter (size: max_side, aspect: a, skewed: c)")
	seed := flag.Int64("seed", 2004, "generator seed")
	out := flag.String("out", "", "output path (default stdout)")
	format := flag.String("format", "bin", "output format: bin|csv")
	flag.Parse()

	items, err := generate(*kind, *n, *param, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		w = f
	}
	bw := bufio.NewWriter(w)

	switch *format {
	case "bin":
		buf := make([]byte, storage.ItemSize)
		for _, it := range items {
			storage.EncodeItem(buf, it)
			if _, err := bw.Write(buf); err != nil {
				fail(err)
			}
		}
	case "csv":
		if _, err := fmt.Fprintln(bw, "minx,miny,maxx,maxy,id"); err != nil {
			fail(err)
		}
		for _, it := range items {
			if _, err := fmt.Fprintf(bw, "%g,%g,%g,%g,%d\n",
				it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY, it.ID); err != nil {
				fail(err)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown format %q\n", *format)
		os.Exit(2)
	}
	// A full or failing disk shows at the flush or the close, not before.
	if err := bw.Flush(); err != nil {
		fail(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			fail(err)
		}
	}
}

// fail reports a failed write and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

func generate(kind string, n int, param float64, seed int64) ([]geom.Item, error) {
	switch kind {
	case "tiger":
		return dataset.Eastern(n, seed), nil
	case "western":
		return dataset.Western(n, seed), nil
	case "size":
		if param <= 0 {
			param = 0.01
		}
		return dataset.Size(n, param, seed), nil
	case "aspect":
		if param <= 0 {
			param = 10
		}
		return dataset.Aspect(n, param, seed), nil
	case "skewed":
		c := int(param)
		if c <= 0 {
			c = 5
		}
		return dataset.Skewed(n, c, seed), nil
	case "cluster":
		return dataset.Cluster(n, seed), nil
	case "worstcase":
		return dataset.WorstCase(n, 113), nil
	case "uniform":
		if param <= 0 {
			param = 0.01
		}
		return dataset.Uniform(n, param, seed), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

// Command prtool builds, persists, inspects and queries R-tree indexes
// from the command line.
//
// Usage:
//
//	prtool -in data.bin -loader PR stats
//	prtool -in data.bin query 0.1,0.1,0.2,0.2
//	prtool -in data.bin bench -queries 100 -area 0.01
//	prtool -in data.bin -index roads.pr create
//	prtool -index roads.pr stats|query x1,y1,x2,y2|bench
//
// Subcommands:
//
//	create  bulk-load -in into the on-disk index file -index (built once,
//	        queryable across process runs); prints the file's footprint.
//	        Every loader builds in memory and writes tree pages only: the
//	        index and its .wal are the only files
//	shard   partition -in into -shards trees (Hilbert-ordered)
//	        and bulk-load them into the index directory -out, writing a
//	        manifest prtreeserve serves from; prints each shard file's size
//	stats   print tree shape, utilization and build I/O, and for an index
//	        file its footprint: pages in use of pages allocated, bytes on
//	        disk, bytes per item
//	query   run one window query (x1,y1,x2,y2) and print matches
//	bench   run random square queries and report the paper's cost metric
//	fsck    verify every in-use page's checksum and the tree's structure
//	        (read-only; exits nonzero on the first corrupt page)
//	recover replay the write-ahead log if the file was not closed cleanly,
//	        report what was restored, and checkpoint so the log drains
//	compact force a full synchronous compaction of a dynamic index file
//	        (-index): merge the buffer and every logarithmic-method level
//	        into one static PR-tree, printing level occupancy and page
//	        counts before and after. Opening the file recovers it first —
//	        a dynamic index's mutations since its last saved state are log
//	        records, re-applied here — and the "recovery:" line reports
//	        the transactions replayed and the notes re-applied
//
// With -index and no -in, the index file is opened in place (no rebuild);
// with -in and no -index, the tree is built in memory as before.
//
// Exit codes: 0 ok; 1 operational failure (file could not be opened or
// read, I/O error); 2 usage error; 3 corruption found (checksum or
// structure verification failed, or the index/log is damaged beyond
// opening) — so scripts can tell "run fsck's repair path" from "the path
// was wrong".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"prtree"
	"prtree/internal/serve"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

func main() {
	in := flag.String("in", "", "input dataset (datagen -format bin)")
	index := flag.String("index", "", "on-disk index file (create writes it, other subcommands open it)")
	loaderName := flag.String("loader", "PR", "bulk loader: PR|H|H4|TGS")
	queries := flag.Int("queries", 100, "bench: number of queries")
	area := flag.Float64("area", 0.01, "bench: query area fraction")
	seed := flag.Int64("seed", 1, "bench: query seed")
	limit := flag.Int("limit", 0, "query: stop after N matches (0 = all)")
	out := flag.String("out", "", "shard: output index directory")
	nshards := flag.Int("shards", 4, "shard: number of shards")
	cache := flag.Int("cache", 0, "page-cache capacity in pages (0 or negative = unbounded)")
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
	}
	loader, err := parseLoader(*loaderName)
	if err != nil {
		fatal(err)
	}
	opts := &prtree.Options{
		CacheCapacity: *cache,
		// Every load builds the same tree at any setting, so there is no
		// flag: use the machine.
		Parallelism: runtime.GOMAXPROCS(0),
	}

	if flag.Arg(0) == "shard" {
		if *in == "" || *out == "" {
			fmt.Fprintln(os.Stderr, "prtool: shard needs both -in and -out")
			os.Exit(2)
		}
		items, err := readItems(*in)
		if err != nil {
			fatal(err)
		}
		man, err := serve.Build(*out, items, serve.BuildOptions{
			Shards:      *nshards,
			Loader:      loader,
			Parallelism: opts.Parallelism,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sharded %d items into %s (%s partition, loader %v):\n",
			man.Items, *out, man.Partition, loader)
		for i, si := range man.Shards {
			fmt.Printf("  shard %3d: %s (%d items); %s\n", i, si.File, si.Items,
				fileSize(filepath.Join(*out, si.File), si.Items))
		}
		return
	}

	if flag.Arg(0) == "create" {
		if *in == "" || *index == "" {
			fmt.Fprintln(os.Stderr, "prtool: create needs both -in and -index")
			os.Exit(2)
		}
		items, err := readItems(*in)
		if err != nil {
			fatal(err)
		}
		tree, err := prtree.Create(*index, opts)
		if err != nil {
			fatal(err)
		}
		if err := tree.BulkLoad(loader, items); err != nil {
			fatal(err)
		}
		buildIO := tree.IOStats()
		total, inUse := tree.PageCounts()
		if err := tree.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("created %s: %d items with loader %v (%d reads, %d writes)\n",
			*index, len(items), loader, buildIO.Reads, buildIO.Writes)
		fmt.Printf("pages %d in use of %d allocated, %s\n", inUse, total, fileSize(*index, len(items)))
		return
	}

	if flag.Arg(0) == "compact" {
		if *index == "" || *in != "" {
			fmt.Fprintln(os.Stderr, "prtool: compact needs -index (a dynamic index file) and no -in")
			os.Exit(2)
		}
		d, err := prtree.OpenDynamic(*index, opts)
		if err != nil {
			fatalOpen(err)
		}
		if ri := d.Recovery(); ri != nil {
			fmt.Printf("recovery: %s\n", ri)
		}
		printDynamicShape("before", d)
		if err := d.FlushE(); err != nil {
			fatal(err)
		}
		if err := d.Sync(); err != nil {
			fatal(err)
		}
		printDynamicShape("after", d)
		if err := d.CheckPages(); err != nil {
			fmt.Printf("checksums: FAILED: %v\n", err)
			os.Exit(exitCorrupt)
		}
		if err := d.Close(); err != nil {
			fatal(err)
		}
		return
	}

	var tree *prtree.Tree
	var buildIO prtree.IOStats
	switch {
	case *index != "" && *in != "":
		fmt.Fprintf(os.Stderr, "prtool: %s with both -in and -index is ambiguous; use create to build the index, then drop -in to open it\n", flag.Arg(0))
		os.Exit(2)
	case *index != "":
		tree, err = prtree.Open(*index, opts)
		if err != nil {
			fatalOpen(err)
		}
		defer tree.Close()
	case *in != "":
		items, err := readItems(*in)
		if err != nil {
			fatal(err)
		}
		tree = prtree.BulkWith(loader, items, opts)
		buildIO = tree.IOStats()
	default:
		usage()
	}

	switch flag.Arg(0) {
	case "stats":
		leaf, internal := tree.Utilization()
		if tree.Path() != "" {
			fmt.Printf("index:         %s (opened in place)\n", tree.Path())
		} else {
			fmt.Printf("loader:        %v\n", loader)
		}
		fmt.Printf("items:         %d\n", tree.Len())
		fmt.Printf("height:        %d\n", tree.Height())
		fmt.Printf("nodes:         %d\n", tree.Nodes())
		if tree.Path() != "" {
			total, inUse := tree.PageCounts()
			fmt.Printf("footprint:     pages %d in use of %d allocated, %s\n", inUse, total, fileSize(tree.Path(), tree.Len()))
		}
		fmt.Printf("leaf fill:     %.2f%%\n", 100*leaf)
		fmt.Printf("internal fill: %.2f%%\n", 100*internal)
		if tree.Path() == "" {
			fmt.Printf("build I/O:     %d reads, %d writes\n",
				buildIO.Reads, buildIO.Writes)
		}
		if err := tree.Validate(); err != nil {
			fmt.Printf("VALIDATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("validation:    ok")
		printCache(tree)
	case "query":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "prtool: query needs x1,y1,x2,y2")
			os.Exit(2)
		}
		rect, err := parseRect(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		var st prtree.QueryStats
		q := prtree.Window(rect).WithStats(&st).WithLimit(*limit)
		for it := range tree.Iter(q) {
			fmt.Printf("%d\t%g,%g,%g,%g\n", it.ID, it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY)
		}
		fmt.Printf("# %d results, %d leaf blocks, %d nodes visited\n",
			st.Results, st.LeavesVisited, st.NodesVisited)
	case "bench":
		world := tree.MBR()
		qs := workload.Squares(world, *area, *queries, *seed)
		tree.ResetIOStats()
		var leaves, results int
		for _, q := range qs {
			var st prtree.QueryStats
			if err := tree.Run(prtree.Window(q).WithStats(&st), nil); err != nil {
				fatal(err)
			}
			leaves += st.LeavesVisited
			results += st.Results
		}
		io := tree.IOStats()
		fmt.Printf("queries:      %d squares of %.2f%% area\n", *queries, *area*100)
		fmt.Printf("avg T:        %.1f\n", float64(results)/float64(*queries))
		fmt.Printf("avg leaf I/O: %.1f\n", float64(leaves)/float64(*queries))
		if results > 0 {
			pct := 100 * float64(leaves) / (float64(results) / float64(tree.Fanout()))
			fmt.Printf("cost:         %.1f%% of T/B\n", pct)
		}
		fmt.Printf("block I/O:    %d demand reads\n", io.Reads)
		printCache(tree)
	case "fsck":
		if tree.Path() == "" {
			fmt.Fprintln(os.Stderr, "prtool: fsck needs -index (an on-disk file to scrub)")
			os.Exit(2)
		}
		if ri := tree.Recovery(); ri != nil {
			fmt.Printf("recovery:  %s\n", ri)
		} else {
			fmt.Println("recovery:  clean open, nothing to replay")
		}
		if err := tree.CheckPages(); err != nil {
			fmt.Printf("checksums: FAILED: %v\n", err)
			os.Exit(exitCorrupt)
		}
		fmt.Println("checksums: ok (every in-use page verified)")
		if err := tree.Validate(); err != nil {
			fmt.Printf("structure: FAILED: %v\n", err)
			os.Exit(exitCorrupt)
		}
		fmt.Println("structure: ok")
	case "recover":
		if tree.Path() == "" {
			fmt.Fprintln(os.Stderr, "prtool: recover needs -index (an on-disk file to recover)")
			os.Exit(2)
		}
		// Open already replayed the log; report what it did, then Close
		// checkpoints, leaving the file clean and the log empty.
		if ri := tree.Recovery(); ri != nil {
			fmt.Printf("recovery: %s\n", ri)
		} else {
			fmt.Println("recovery: clean open, nothing to replay")
		}
		fmt.Printf("items:    %d\n", tree.Len())
		if err := tree.Validate(); err != nil {
			fmt.Printf("structure: FAILED: %v\n", err)
			os.Exit(exitCorrupt)
		}
		if err := tree.Sync(); err != nil {
			fatal(err)
		}
		fmt.Println("checkpointed: recovered state persisted, log truncated")
	default:
		fmt.Fprintf(os.Stderr, "prtool: unknown subcommand %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// printDynamicShape prints a dynamic index's level occupancy and page
// accounting, labelled so compact's before/after pair reads as a diff.
func printDynamicShape(label string, d *prtree.Dynamic) {
	total, inUse := d.PageCounts()
	fmt.Printf("%s: %d items (buffer %d of %d, base %d)\n", label, d.Len(), d.BufferLen(), d.BufferCap(), d.Base())
	sizes := d.LevelSizes()
	occupied := 0
	for k, sz := range sizes {
		if sz == 0 {
			continue
		}
		occupied++
		fmt.Printf("%s:   level %2d: %d items\n", label, k, sz)
	}
	if occupied == 0 {
		fmt.Printf("%s:   no occupied levels\n", label)
	}
	fmt.Printf("%s: pages %d in use of %d allocated\n", label, inUse, total)
}

// fileSize renders an index file's size on disk, absolute and per stored
// item (the paper's record is 36 bytes).
func fileSize(path string, items int) string {
	st, err := os.Stat(path)
	if err != nil {
		return "index file size unknown: " + err.Error()
	}
	s := fmt.Sprintf("index file %d bytes", st.Size())
	if items > 0 {
		s += fmt.Sprintf(" (%.1f bytes per item)", float64(st.Size())/float64(items))
	}
	return s
}

// printCache reports the pager's cache behavior: the capacity plus the
// hit/miss/eviction counters accumulated so far in this process.
func printCache(tree *prtree.Tree) {
	cs := tree.CacheStats()
	capStr := "unbounded"
	if cs.Capacity > 0 {
		capStr = fmt.Sprintf("%d pages", cs.Capacity)
	}
	fmt.Printf("cache:        capacity=%s\n", capStr)
	fmt.Printf("              hits=%d misses=%d evictions=%d (hit rate %.1f%%)\n",
		cs.Hits, cs.Misses, cs.Evictions, 100*cs.HitRatio())
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prtool -in data.bin [-loader PR] stats|query x1,y1,x2,y2|bench
       prtool -in data.bin -index file.pr create
       prtool -in data.bin -out dir -shards N shard
       prtool -index file.pr stats|query x1,y1,x2,y2|bench|fsck|recover
       prtool -index file.pr compact   (dynamic index files only)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prtool:", err)
	os.Exit(1)
}

// exitCorrupt is the "corruption found" exit code, distinct from plain
// operational failure (1) and usage errors (2).
const exitCorrupt = 3

// fatalOpen reports a failed index open, classifying damaged-file errors
// (bad magic, bad version, checksum mismatch, truncation, corrupt WAL)
// as corruption so callers can script fsck/recover runs.
func fatalOpen(err error) {
	fmt.Fprintln(os.Stderr, "prtool:", err)
	for _, sentinel := range []error{
		prtree.ErrChecksum, prtree.ErrBadMagic, prtree.ErrBadVersion,
		prtree.ErrTruncated, prtree.ErrWALCorrupt,
	} {
		if errors.Is(err, sentinel) {
			os.Exit(exitCorrupt)
		}
	}
	os.Exit(1)
}

func parseLoader(s string) (prtree.Loader, error) {
	switch strings.ToUpper(s) {
	case "PR":
		return prtree.PR, nil
	case "H":
		return prtree.Hilbert, nil
	case "H4":
		return prtree.Hilbert4D, nil
	case "TGS":
		return prtree.TGS, nil
	default:
		return 0, fmt.Errorf("unknown loader %q", s)
	}
}

func parseRect(s string) (prtree.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return prtree.Rect{}, fmt.Errorf("rect needs 4 comma-separated numbers, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return prtree.Rect{}, err
		}
		v[i] = f
	}
	return prtree.NewRect(v[0], v[1], v[2], v[3]), nil
}

func readItems(path string) ([]prtree.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var items []prtree.Item
	buf := make([]byte, storage.ItemSize)
	for {
		_, err := io.ReadFull(f, buf)
		if err == io.EOF {
			return items, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		items = append(items, storage.DecodeItem(buf))
	}
}

// Command prbench regenerates the paper's evaluation: every figure and
// table of Section 3 plus the Theorem 3 demonstration, the Lemma 2
// empirical check, the ablations and the update experiment of §4, printed
// as aligned text tables and optionally emitted as machine-readable JSON.
//
// Usage:
//
//	prbench [-scale F] [-queries N] [-workers W] [-seed S]
//	        [-json FILE] [-only ids] [-list]
//	prbench -check FILE [-only ids]
//
// -scale multiplies the default dataset sizes (~120k rectangles at 1.0;
// the paper used 10-16.7M — scale 100 reproduces that on a large machine).
// -workers sets the parallelism of the in-memory builds (default:
// GOMAXPROCS; counted cells are identical at any setting, only wall-clock
// changes); fig9–11's external builds are serial at any setting.
// Every query table builds its trees in memory, as the library does, PR's
// by the exact construction of the paper's §2.1; fig9–11 price the external
// construction at a fixed M of 2^14 records.
// -json writes the results as JSON to the given file ("-" for stdout), the
// producer for BENCH_*.json trajectory tracking: per-experiment rows plus
// wall seconds and allocation counters. When the file already exists, the
// new rows are merged into it — experiments re-run this invocation replace
// their previous records in place, experiments not re-run are preserved —
// so partial runs like `prbench -only fig12 -json BENCH_fig12.json` update
// one experiment without regenerating the whole suite.
// -only selects a comma-separated subset of experiment ids, e.g.
// "fig9,table1"; -list prints them all.
//
// -check FILE reruns every experiment a -json file records (or the -only
// subset of them) at the file's scale, query count, worker count and seed,
// and compares each table's title, columns, notes and every cell exactly —
// all but the wall-clock cells (a number followed by "s") and the
// per-table seconds and allocation counters. It prints each differing
// cell and exits 1 if any differs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"time"

	"prtree/internal/experiments"
)

// jsonExperiment is one experiment's machine-readable record.
type jsonExperiment struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Notes      string     `json:"notes,omitempty"`
	Seconds    float64    `json:"seconds"`
	Allocs     uint64     `json:"allocs"`
	AllocBytes uint64     `json:"alloc_bytes"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Scale        float64          `json:"scale"`
	Queries      int              `json:"queries"`
	Workers      int              `json:"workers"`
	Seed         int64            `json:"seed"`
	TotalSeconds float64          `json:"total_seconds"`
	Experiments  []jsonExperiment `json:"experiments"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	queries := flag.Int("queries", 100, "window queries per measurement point")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallelism of the in-memory builds (1 = serial; fig9–11's external builds are serial; counted cells are identical at any setting)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file (\"-\" = stdout)")
	seed := flag.Int64("seed", 2004, "generator seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	check := flag.String("check", "", "rerun the experiments this -json file records and compare every counted cell")
	flag.Parse()
	if *list {
		for _, e := range experiments.All {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Queries: *queries, Workers: *workers, Seed: *seed}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !slices.ContainsFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id }) {
				fmt.Fprintf(os.Stderr, "prbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
		}
	}

	if *check != "" {
		if !checkReport(*check, want) {
			os.Exit(1)
		}
		return
	}

	jsonOnly := *jsonPath == "-"
	if !jsonOnly {
		fmt.Printf("PR-tree reproduction suite (scale=%g queries=%d workers=%d seed=%d)\n\n",
			*scale, *queries, *workers, *seed)
	}
	report := jsonReport{
		Scale:   *scale,
		Queries: *queries,
		Workers: *workers,
		Seed:    *seed,
	}
	total := time.Now()
	var before, after runtime.MemStats
	for _, e := range experiments.All {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		table := e.Run(cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !jsonOnly {
			fmt.Print(table.Render())
			fmt.Printf("(%.1fs)\n\n", elapsed.Seconds())
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID:         table.ID,
			Title:      table.Title,
			Columns:    table.Columns,
			Rows:       table.Rows,
			Notes:      table.Notes,
			Seconds:    elapsed.Seconds(),
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
		})
	}
	report.TotalSeconds = time.Since(total).Seconds()
	if !jsonOnly {
		fmt.Printf("total: %.1fs\n", report.TotalSeconds)
	}

	if *jsonPath != "" {
		out := report
		if !jsonOnly {
			out = mergeReport(*jsonPath, report)
		}
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "prbench: encoding json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if jsonOnly {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "prbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}

// mergeReport folds the just-finished run into an existing -json file:
// experiments re-run this invocation replace their previous records in
// place (keeping the file's ordering), experiments not re-run are
// preserved, and new ones are appended in run order. Top-level parameters
// come from the new run. A missing or unreadable file means the new
// report stands alone.
func mergeReport(path string, fresh jsonReport) jsonReport {
	data, err := os.ReadFile(path)
	if err != nil {
		return fresh
	}
	var prev jsonReport
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "prbench: %s exists but is not a prbench report (%v); overwriting\n", path, err)
		return fresh
	}
	reran := make(map[string]jsonExperiment, len(fresh.Experiments))
	for _, e := range fresh.Experiments {
		reran[e.ID] = e
	}
	merged := fresh
	merged.Experiments = nil
	merged.TotalSeconds = 0
	for _, e := range prev.Experiments {
		if ne, ok := reran[e.ID]; ok {
			merged.Experiments = append(merged.Experiments, ne)
			delete(reran, e.ID)
		} else {
			merged.Experiments = append(merged.Experiments, e)
		}
	}
	for _, e := range fresh.Experiments {
		if _, ok := reran[e.ID]; ok {
			merged.Experiments = append(merged.Experiments, e)
		}
	}
	for _, e := range merged.Experiments {
		merged.TotalSeconds += e.Seconds
	}
	return merged
}

// timingCell matches a wall-clock cell such as "0.05s": the one kind of
// cell -check does not compare.
var timingCell = regexp.MustCompile(`^[0-9][0-9,]*(\.[0-9]+)?s$`)

// checkReport reruns the experiments the report at path records (those in
// want, when it is not empty) with the report's parameters and prints
// every difference from the recorded tables. It reports whether there was
// none.
func checkReport(path string, want map[string]bool) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prbench: %v\n", err)
		return false
	}
	var rec jsonReport
	if err := json.Unmarshal(data, &rec); err != nil {
		fmt.Fprintf(os.Stderr, "prbench: %s is not a prbench report: %v\n", path, err)
		return false
	}
	cfg := experiments.Config{Scale: rec.Scale, Queries: rec.Queries, Workers: rec.Workers, Seed: rec.Seed}
	fmt.Printf("checking %s (scale=%g queries=%d workers=%d seed=%d)\n", path, rec.Scale, rec.Queries, rec.Workers, rec.Seed)
	ok, checked := true, 0
	for _, r := range rec.Experiments {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == r.ID })
		if i < 0 {
			fmt.Printf("%s: no such experiment\n", r.ID)
			ok = false
			continue
		}
		start := time.Now()
		got := experiments.All[i].Run(cfg)
		cells, diffs := diffTable(r, got)
		checked++
		for _, d := range diffs {
			fmt.Printf("%s: %s\n", r.ID, d)
		}
		ok = ok && len(diffs) == 0
		fmt.Printf("%s: %d cells compared, %d differences (%.1fs)\n", r.ID, cells, len(diffs), time.Since(start).Seconds())
	}
	if checked == 0 {
		fmt.Println("no experiment checked")
		return false
	}
	return ok
}

// diffTable compares a recorded table with a fresh run of it and returns
// how many cells it compared and a line for each difference.
func diffTable(rec jsonExperiment, got experiments.Table) (cells int, diffs []string) {
	field := func(what, r, g string) {
		if r != g {
			diffs = append(diffs, fmt.Sprintf("%s: recorded %q, got %q", what, r, g))
		}
	}
	field("title", rec.Title, got.Title)
	field("notes", rec.Notes, got.Notes)
	field("columns", strings.Join(rec.Columns, " | "), strings.Join(got.Columns, " | "))
	field("rows", fmt.Sprint(len(rec.Rows)), fmt.Sprint(len(got.Rows)))
	for i := range min(len(rec.Rows), len(got.Rows)) {
		r, g := rec.Rows[i], got.Rows[i]
		row := fmt.Sprint(i)
		if len(r) > 0 {
			row += " (" + r[0] + ")"
		}
		for j := range max(len(r), len(g)) {
			var rc, gc string
			if j < len(r) {
				rc = r[j]
			}
			if j < len(g) {
				gc = g[j]
			}
			if timingCell.MatchString(rc) && timingCell.MatchString(gc) {
				continue
			}
			cells++
			col := fmt.Sprint(j)
			if j < len(rec.Columns) {
				col = rec.Columns[j]
			}
			field(fmt.Sprintf("row %s, column %q", row, col), rc, gc)
		}
	}
	return cells, diffs
}

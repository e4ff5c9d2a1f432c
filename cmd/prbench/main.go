// Command prbench regenerates the paper's evaluation: every figure and
// table of Section 3 plus the Theorem 3 demonstration, the Lemma 2
// empirical check, the ablations and the update experiment of §4, printed
// as aligned text tables and optionally emitted as machine-readable JSON.
//
// Usage:
//
//	prbench [-scale F] [-queries N] [-mem M] [-workers W] [-seed S]
//	        [-json FILE] [-only ids] [-list]
//
// -scale multiplies the default dataset sizes (~120k rectangles at 1.0;
// the paper used 10-16.7M — scale 100 reproduces that on a large machine).
// -workers sets the bulk-load pipeline's parallelism (default: GOMAXPROCS;
// block-I/O counts are identical at any setting, only wall-clock changes).
// -json writes the results as JSON to the given file ("-" for stdout), the
// producer for BENCH_*.json trajectory tracking: per-experiment rows plus
// wall seconds and allocation counters. When the file already exists, the
// new rows are merged into it — experiments re-run this invocation replace
// their previous records in place, experiments not re-run are preserved —
// so partial runs like `prbench -only fig12 -json BENCH_fig12.json` update
// one experiment without regenerating the whole suite.
// -only selects a comma-separated subset of experiment ids, e.g.
// "fig9,table1"; -list prints them all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
	mem := flag.Int("mem", 0, "bulk-loading memory budget in records (0 = 16384)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "bulk-load parallelism (1 = serial; I/O counts are identical at any setting)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file (\"-\" = stdout)")
	seed := flag.Int64("seed", 2004, "generator seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	if *list {
		for _, e := range experiments.All {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.Config{
		Scale:       *scale,
		Queries:     *queries,
		MemoryItems: *mem,
		Workers:     *workers,
		Seed:        *seed,
	}
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
	return merged
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is BENCHMARK.json: the contract the driver reads, and the
// source of each end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Quick {
		return nil, fmt.Errorf("%s is a -quick result: smoke runs are not comparable", path)
	}
	return &d, nil
}

// readSide loads one side of a comparison: a result file, or a directory
// whose every .json file is one run of the same commit.
func readSide(path string) ([]*document, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s holds no .json result", path)
		}
	}
	docs := make([]*document, len(paths))
	for i, p := range paths {
		if docs[i], err = readDocument(p); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// summary is one side's view of one metric on one workload.
type summary struct {
	median, spread float64
	runs           int
}

// summarize pools a side's runs. With several runs the median is the
// median of the runs' values and the spread is the distance between their
// first and third quartile as a share of it, quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them. A single run can only offer
// how far its own segments disagree, min to max.
func summarize(docs []*document, workload, metric string) (summary, bool) {
	var vals []float64
	var only sample
	for _, d := range docs {
		for _, r := range d.Results {
			if r.Workload != workload {
				continue
			}
			s, ok := r.EndToEnd[metric]
			if !ok {
				s, ok = r.PerLayer[metric]
			}
			if ok {
				only = s
				vals = append(vals, s.Value)
			}
		}
	}
	switch len(vals) {
	case 0:
		return summary{}, false
	case 1:
		return summary{median: only.Value, spread: only.spread(), runs: 1}, true
	}
	sort.Float64s(vals)
	med := median(vals)
	return summary{median: med, spread: (quartile(vals, 3) - quartile(vals, 1)) / math.Abs(med), runs: len(vals)}, true
}

// quartile k (1 or 3) of ascending vals, at least two of them, exactly as
// Python's statistics.quantiles(vals, n=4) computes it: the exclusive
// method, which extrapolates past the ends of small samples.
func quartile(vals []float64, k int) float64 {
	n := len(vals)
	j := min(max(k*(n+1)/4, 1), n-1)
	delta := float64(k*(n+1) - j*4)
	return (vals[j-1]*(4-delta) + vals[j]*delta) / 4
}

// verdict judges b against a for one metric. worsening is the signed
// relative change in the metric's bad direction. A side whose own values
// disagree by more than the bound cannot resolve a change of that size, so
// it is reported unresolved, never same. A metric without a bound (the
// timing metrics) is judged against the wider of the two sides' spreads: a
// change has to exceed what the runs of one commit differ by.
func verdict(m boundedMetric, a, b summary) (worsening float64, v string) {
	if m.Bound == 0 {
		m.Bound = max(a.spread, b.spread)
	}
	worsening = (b.median - a.median) / a.median
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case a.spread > m.Bound || b.spread > m.Bound:
		v = "unresolved"
	case worsening > m.Bound:
		v = "worse"
	case worsening < -m.Bound:
		v = "better"
	default:
		v = "same"
	}
	return worsening, v
}

func failures(docs []*document, workload string) (failed int64) {
	for _, d := range docs {
		for _, r := range d.Results {
			if r.Workload == workload {
				failed += r.Failed
			}
		}
	}
	return failed
}

// compareSides prints one row per workload and metric both sides measured,
// for the end-to-end metrics and the timing metrics, and returns how many
// rows are worse.
func compareSides(bf *benchmarkFile, a, b []*document, w io.Writer) int {
	metrics := append([]boundedMetric(nil), bf.EndToEnd...)
	for _, m := range bf.PerLayer {
		if slices.Contains(timingNames, m.Name) {
			metrics = append(metrics, boundedMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	worse := 0
	fmt.Fprintf(w, "A: %s, %d result file(s)   B: %s, %d result file(s)\n", a[0].GitSHA, len(a), b[0].GitSHA, len(b))
	fmt.Fprintf(w, "%-22s %-16s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "A spread", "B median", "B spread", "worse by", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range metrics {
			sa, okA := summarize(a, wl, m.Name)
			sb, okB := summarize(b, wl, m.Name)
			if !okA || !okB {
				continue
			}
			worsening, v := verdict(m, sa, sb)
			if v == "worse" {
				worse++
			}
			bound := "spread"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "%-22s %-16s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %6s  %s\n",
				wl, m.Name, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*worsening, bound, v)
		}
		if fa, fb := failures(a, wl), failures(b, wl); fb > fa {
			worse++
			fmt.Fprintf(w, "%-22s failed operations rose from %d to %d  worse\n", wl, fa, fb)
		}
	}
	return worse
}

// sameScale refuses results measured at different scales: with another
// dataset size or segment count the same name is another quantity.
func sameScale(docs []*document) error {
	for _, d := range docs[1:] {
		if d.Items != docs[0].Items || d.Seconds != docs[0].Seconds {
			return fmt.Errorf("results differ in scale (items %d, seconds %g against items %d, seconds %g): not comparable",
				docs[0].Items, docs[0].Seconds, d.Items, d.Seconds)
		}
	}
	return nil
}

func compareFiles(bf *benchmarkFile, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSide(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSide(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := sameScale(append(append([]*document(nil), a...), b...)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareSides(bf, a, b, stdout) > 0 {
		return 1
	}
	return 0
}

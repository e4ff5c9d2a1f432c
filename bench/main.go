// Command bench is the repository's benchmark: four workloads against the
// program's public surfaces (the prtreeserve binary over its binary
// protocol, the prtree facade, the durable prtree.Dynamic), every answer
// checked against a brute-force oracle, end-to-end metrics measured with
// tracing off and per-layer metrics from a separate traced run. See
// README.md for why each workload exists and which layer should move
// which number.
//
//	go run -C bench prtree/bench --workload serve-large --seed 7 --seconds 10 --trace 0
//	go run -C bench prtree/bench -out results/a          # all four workloads, traced
//	go run -C bench prtree/bench -compare results/a/result.json results/b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// Scale. The counts are constants, never adapted at run time: a faster
// program finishes its segments sooner, it is not handed more or bigger
// ones. They are sized so that one run of one workload, with its three
// set-ups, fits the ~35 s the benchmark contract leaves per run on a 2-CPU
// box.
const (
	datasetItems = 300_000 // dataset.Western argument: ≈216k rectangles
	defaultSeed  = 2004

	callers      = 2 // closed-loop callers; never more than nproc on this box
	setupRepeats = 3 // setup_s is the median of this many full set-ups

	quickItemsDiv = 10
	quickOpsDiv   = 20
)

type config struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	quick     bool
	root      string // repository root: the directory holding BENCHMARK.json
}

// items is the dataset.Western size argument.
func (c config) items() int {
	if c.quick {
		return datasetItems / quickItemsDiv
	}
	return datasetItems
}

// ops scales an operation count down for -quick.
func (c config) ops(n int) int {
	if c.quick {
		n /= quickOpsDiv
	}
	if n < 1 {
		n = 1
	}
	return n
}

// run is one invocation's shared state: its scratch directory and the
// children that must not outlive it.
type run struct {
	cfg   config
	tmp   string
	procs int

	mu   sync.Mutex
	live *server // the running child, if any: at most one at a time
}

// setLive records the running child (nil when it has stopped) for cleanup.
func (r *run) setLive(s *server) {
	r.mu.Lock()
	r.live = s
	r.mu.Unlock()
}

// cleanup kills the child if it still runs and removes the scratch
// directory.
func (r *run) cleanup() {
	r.mu.Lock()
	if r.live != nil {
		r.live.kill()
		r.live = nil
	}
	r.mu.Unlock()
	os.RemoveAll(r.tmp)
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
	Counts    map[string]int    `json:"counts"` // operation counts behind the numbers
}

func newResult(name string) *result {
	return &result{Workload: name, EndToEnd: map[string]sample{}, PerLayer: map[string]sample{}, Counts: map[string]int{}}
}

// e2e and layer record a metric as the median of vals.
func (r *result) e2e(name string, vals ...float64)   { r.EndToEnd[name] = newSample(vals...) }
func (r *result) layer(name string, vals ...float64) { r.PerLayer[name] = newSample(vals...) }

// timing records what the callers of the untraced measured phase saw. ops
// is the phase of the workload's own operations, reads the reader's side of
// it: the same phase when every operation is a read.
func (r *result) timing(ops, reads phase) {
	r.PerLayer["ops_s"], r.PerLayer["lat_p50_us"], r.PerLayer["lat_p99_us"] = ops.opsPerSec(), ops.latency(0.50), ops.latency(0.99)
	r.PerLayer["read_ops_s"], r.PerLayer["read_lat_p50_us"], r.PerLayer["read_lat_p99_us"] = reads.opsPerSec(), reads.latency(0.50), reads.latency(0.99)
}

// count folds a phase's operations into the attempted/failed totals.
func (r *result) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// document is the JSON result file of one invocation.
type document struct {
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Items      int       `json:"items"`
	Quick      bool      `json:"quick"`
	Traced     bool      `json:"traced"`
	Results    []*result `json:"results"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "segments of about one second in each measured phase (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 1, "1: also run the traced phase and the per-layer probes, and end with the per-layer metrics; 0: end-to-end only")
	out := fs.String("out", "", "directory for result.json and trace-<workload>.json (none when empty)")
	quick := fs.Bool("quick", false, "smoke scale: operation counts ÷ 20, dataset ÷ 10; results are marked and -compare refuses them")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(bf, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, quick: *quick, root: root}
	for _, w := range strings.Split(*workloads, ",") {
		if workloadFuncs[w] == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", w, strings.Join(workloadNames, ", "))
			return 2
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	doc, err := runAll(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, res := range doc.Results {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json. The benchmark reads and writes nowhere above it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

var workloadFuncs = map[string]func(*run, *result) error{
	"serve-small":          func(r *run, res *result) error { return runServe(r, res, serveSmall) },
	"serve-large":          func(r *run, res *result) error { return runServe(r, res, serveLarge) },
	"embed-cache-pressure": runEmbed,
	"dyn-durable-churn":    runDyn,
}

// runAll runs the configured workloads, prints each one's table and
// contract line as it completes, and writes the result document.
func runAll(cfg config, stdout io.Writer) (*document, error) {
	scratch := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, tmp: tmp, procs: runtime.GOMAXPROCS(0)}
	defer r.cleanup()
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			r.cleanup()
			os.Exit(1)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()

	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
	}
	doc := &document{
		GitSHA: gitSHA(cfg.root), GoVersion: runtime.Version(), GOMAXPROCS: r.procs, NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Items: cfg.items(), Quick: cfg.quick, Traced: cfg.trace,
	}
	for _, name := range cfg.workloads {
		res := newResult(name)
		if err := workloadFuncs[name](r, res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := complete(res, cfg.trace); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		doc.Results = append(doc.Results, res)
		printTable(stdout, res)
		printContractLine(stdout, res, cfg.trace)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.out, "result.json"), append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// gitSHA names the commit measured, when the tree is a git checkout.
func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// complete checks that the workload emitted every metric it owes, each a
// finite number, and fills the per-layer metrics of layers it does not
// exercise with 0. An untraced run owes the end-to-end metrics and the
// timing of its measured phase.
func complete(res *result, traced bool) error {
	for _, m := range endToEndSpec {
		s, ok := res.EndToEnd[m.name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if !finite(s.Value) || s.Value <= 0 {
			return fmt.Errorf("end-to-end metric %s = %v", m.name, s.Value)
		}
	}
	for _, name := range timingNames {
		if s := res.PerLayer[name]; !finite(s.Value) || s.Value <= 0 {
			return fmt.Errorf("timing metric %s = %v", name, s.Value)
		}
	}
	if !traced {
		return nil
	}
	for _, m := range perLayerSpec {
		s, ok := res.PerLayer[m.name]
		if !ok {
			res.PerLayer[m.name] = sample{}
		} else if !finite(s.Value) {
			return fmt.Errorf("per-layer metric %s = %v", m.name, s.Value)
		}
	}
	if len(res.PerLayer) != len(perLayerSpec) {
		return fmt.Errorf("%d per-layer metrics emitted, spec has %d", len(res.PerLayer), len(perLayerSpec))
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func printTable(w io.Writer, res *result) {
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d (failed_frac %g)\n", res.Workload, res.Attempted, res.Failed, failedFrac)
	row := func(m metricSpec, s sample) {
		fmt.Fprintf(w, "  %-42s %16.6g %-6s  [min %.6g, max %.6g, n=%d]\n", m.name, s.Value, m.unit, s.Min, s.Max, s.N)
	}
	for _, m := range endToEndSpec {
		row(m, res.EndToEnd[m.name])
	}
	fmt.Fprintln(w, "  -- per layer")
	for _, m := range perLayerSpec {
		if s, ok := res.PerLayer[m.name]; ok {
			row(m, s)
		}
	}
}

// printContractLine ends a workload's output with the one JSON object the
// benchmark driver reads: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printContractLine(w io.Writer, res *result, traced bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	spec, vals := endToEndSpec, res.EndToEnd
	if traced {
		spec, vals = perLayerSpec, res.PerLayer
	}
	metrics := make(map[string]metric, len(spec))
	for _, m := range spec {
		metrics[m.name] = metric{Value: vals[m.name].Value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

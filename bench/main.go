// Command bench is the repository's benchmark: it builds chainlogd and
// chainlog from the working tree, generates a workload's input from a seed,
// drives the real daemon over loopback with closed-loop connections, checks
// every answer against an independent oracle, and prints the metrics
// BENCHMARK.json declares. See README.md in this directory.
//
//	go run -C bench . --workload point-lookup --seed 1 --seconds 10 --trace 0
//	go run -C bench . --workload point-lookup --seed 1 --seconds 10 --trace 1
//	go run -C bench . -aa 10        # ten seeds per workload, spreads against bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it. The file is the
// single list of names and units: a value the run emits under an undeclared
// name, or a declared name the run does not emit, is an error.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// measurement is one emitted metric.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// report turns emitted values into the result, checking them against the
// declared list.
func report(decls []metricDecl, values map[string]float64, attempted, failed int) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]measurement)}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		res.Metrics[d.Name] = measurement{v, d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return res, nil
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// runOnce is one run of one workload: the end-to-end metrics with tracing
// off, or the per-layer metrics from the traced run.
func runOnce(ws *workspace, b *benchmarkFile, cfg config) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	st, err := newSite(ws, w, cfg.seed, benchSizes)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: input sha256 %s, %d ops in the sequence\n", w.name, cfg.seed, st.in.sha256, len(st.in.ops))
	measure := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return runTraced(st, b, measure)
	}
	e, err := st.run(measure, setUps)
	if err != nil {
		return nil, err
	}
	e.log()
	return report(b.EndToEnd, e.metrics(), e.attempted, e.failed)
}

// metrics are the end-to-end values of the untraced run: timings at the
// reference speed of the machine, each the quartile on its good side of the
// per-round values.
func (e *endToEnd) metrics() map[string]float64 {
	setUps := make([]float64, len(e.setUps))
	for i, d := range e.setUps {
		setUps[i] = d.Seconds() * float64(calibReference) / float64(e.setUpCalib)
	}
	return map[string]float64{
		"setup_s":       lowest(setUps),
		"query_p50_ms":  e.queryP50(),
		"query_qps":     highest(e.perRound(func(r *round) float64 { return float64(len(r.t.query)) / r.wall.Seconds() / r.scale() })),
		"cpu_ms_per_op": lowest(e.scaled(func(r *round) float64 { return millis(r.cpu) / float64(r.ops()) })),
		"rss_peak_mb":   float64(e.peakRSS) / (1 << 20),
	}
}

// log prints the run's detail to standard error.
func (e *endToEnd) log() {
	for i, r := range e.rounds {
		fmt.Fprintf(os.Stderr, "bench: round %d: calib %.2fms, %d queries p50 %.3fms p99 %.3fms, %d writes p50 %.3fms, wall %.2fs, daemon cpu %.2fs\n",
			i, millis(r.calib), len(r.t.query), millis(percentile(r.t.query, 0.5)), millis(percentile(r.t.query, 0.99)),
			len(r.t.write), millis(percentile(r.t.write, 0.5)), r.wall.Seconds(), r.cpu.Seconds())
	}
	fmt.Fprintf(os.Stderr, "bench: the round lines are as measured; reported timings are scaled to a calibration of %v\n", calibReference)
	fmt.Fprintf(os.Stderr, "bench: set-ups %v at calib %.2fms, rounds measured again %d, plan re-optimizations %v, strategies %v, attempted %d, failed %d\n",
		e.setUps, millis(e.setUpCalib), e.discarded, e.scraped["chainlog_plan_reoptimizations_total"], e.strategies, e.attempted, e.failed)
	for _, f := range e.failures {
		fmt.Fprintf(os.Stderr, "bench: FAILED %s\n", f)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the only input")
	flag.IntVar(&cfg.seconds, "seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	aa := flag.Int("aa", 0, "run every workload this many times on successive seeds and hold the spreads against the bounds")
	flag.StringVar(&cfg.out, "out", "", "directory for trace-<workload>.json (default .bench_build/out)")
	flag.Parse()
	cfg.trace = *trace != 0

	// The load generator and the layer replay get two threads, as the
	// daemon's two callers would; the daemon runs on its own defaults.
	runtime.GOMAXPROCS(2)

	code, err := run(cfg, *aa)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(cfg config, aa int) (int, error) {
	ws, err := newWorkspace(cfg.out)
	if err != nil {
		return 0, err
	}
	defer ws.cleanup()
	b, err := readBenchmarkFile(ws.root)
	if err != nil {
		return 0, err
	}
	if cfg.seconds == 0 {
		cfg.seconds = b.RunSeconds
	}
	if err := ws.build(); err != nil {
		return 0, err
	}
	if aa > 0 {
		return runAA(ws, b, cfg, aa)
	}
	res, err := runOnce(ws, b, cfg)
	if err != nil {
		return 0, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAA is the acceptance run: every workload n times on seeds seed..seed+n-1,
// then, per workload and end-to-end metric, the spread between the quartiles
// as a share of the median, held against a third of the metric's bound.
func runAA(ws *workspace, b *benchmarkFile, cfg config, n int) (int, error) {
	code := 0
	values := make(map[string]map[string][]float64) // workload -> metric -> runs
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			if cfg.workload != "" && cfg.workload != w.name {
				continue
			}
			c := cfg
			c.workload, c.seed, c.trace = w.name, cfg.seed+int64(i), false
			res, err := runOnce(ws, b, c)
			if err != nil {
				return 0, fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if !res.Correct {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %-14s %12s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound/3", "")
	for _, wname := range names {
		for _, d := range b.EndToEnd {
			v := values[wname][d.Name]
			sp, verdict := spread(v), "ok"
			if sp > d.Bound/3 {
				verdict = "WIDE"
				if d.Name != "setup_s" {
					code = 1
				}
			}
			fmt.Printf("%-14s %-14s %12.4f %7.2f%% %7.2f%%  %s\n", wname, d.Name, median(v), 100*sp, 100*d.Bound/3, verdict)
		}
	}
	return code, nil
}

// Command perfbench is the end-to-end benchmark of semacycd. It starts
// an in-process server behind a real loopback listener, drives one of
// four closed-loop workloads against it from this process, checks every
// response against an answer known by construction or computed by the
// benchmark's own reference evaluator, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run adds a traced phase after the untraced one and reports the
// per-layer metrics (see trace.go and README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload decide-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run sets the server up at least minSetups times and until the
// setups have taken minSetupTime, at most maxSetups times; setup_s is
// the median, and the last setup serves the measured phases. Short
// setups repeat more often, so their median is as steady as a long
// setup's.
const (
	minSetups    = 3
	maxSetups    = 15
	minSetupTime = 2 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds measured per phase")
	traceFlag := flag.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit recorded in the env block")
	outDir := flag.String("out-dir", ".bench_build/perfbench-out", "directory for the span files")
	flag.Parse()
	if err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *commit, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, d time.Duration, traced bool, commit, outDir string) error {
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	env := map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit, "seed": seed,
		"workload": name, "seconds": d.Seconds(), "trace": traced,
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env", string(envJSON))

	prepStart := time.Now()
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	fmt.Printf("prepare_s %.3f (inputs and reference answers, untimed)\n", time.Since(prepStart).Seconds())
	var t *target
	var setups []float64
	var setupTime time.Duration
	for i := 0; i < maxSetups && (i < minSetups || setupTime < minSetupTime); i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return fmt.Errorf("stop: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		if t, err = startTarget(w.clients()); err != nil {
			return err
		}
		if err := w.setup(t); err != nil {
			t.stop()
			return fmt.Errorf("setup: %w", err)
		}
		setupTime += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Printf("setups %d\n", len(setups))
	defer t.stop() // a no-op after the explicit stop below

	step := func(tr *tracer) func(int, *recorder) {
		return func(c int, rec *recorder) { w.step(t, c, rec, tr) }
	}
	warm := runLoop(w.clients(), warmup(d), step(nil))
	measured := runLoop(w.clients(), d, step(nil))
	phases := []*phase{warm, measured}

	res := result{Metrics: map[string]metric{}}
	printPhase(measured, median(setups))
	if traced {
		if err := w.prepareTrace(); err != nil {
			return fmt.Errorf("prepare trace: %w", err)
		}
		before, err := t.scrape()
		if err != nil {
			return err
		}
		tr := newTracer()
		tp := runLoop(w.clients(), d, step(tr))
		after, err := t.scrape()
		if err != nil {
			return err
		}
		phases = append(phases, tp)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Println("spans", path)
		res.Metrics = layerMetrics(tr, before, after, measured, tp)
	} else {
		res.Metrics = endToEnd(measured, median(setups))
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", p.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for k, m := range res.Metrics {
		// A phase in which every op failed has no latency or per-op
		// figure; report 0 so the result line still prints, marked
		// incorrect by its failures.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	if err := t.stop(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// warmup is the untimed closed-loop phase before measuring.
func warmup(d time.Duration) time.Duration {
	if d/5 < time.Second {
		return d / 5
	}
	return time.Second
}

// endToEnd derives the end-to-end metrics BENCHMARK.json lists. Rates,
// per-op costs and read percentiles are medians over the phase's
// windows (see runLoop).
func endToEnd(p *phase, setup float64) map[string]metric {
	return map[string]metric{
		"ops_per_s":       {p.opsPerS(), "1/s"},
		"p50_ms":          {p.readQuantile(0.5, 100), "ms"},
		"p99_ms":          {p.readQuantile(0.99, 1000), "ms"},
		"cpu_ms_per_op":   {p.perOp(func(w window) float64 { return float64(w.cpu) / float64(time.Millisecond) }), "ms"},
		"alloc_kb_per_op": {p.perOp(func(w window) float64 { return float64(w.alloc) / 1024 }), "KiB"},
		"peak_rss_mb":     {float64(p.maxRSSKB) / 1024, "MiB"},
		"setup_s":         {setup, "s"},
	}
}

// printPhase prints every end-to-end metric of the measured phase,
// including those that apply to some workloads only, with the sample
// counts behind each percentile.
func printPhase(p *phase, setup float64) {
	m := endToEnd(p, setup)
	failed := 0.0
	if p.attempted > 0 {
		failed = float64(p.failed) / float64(p.attempted)
	}
	m["failed_frac"] = metric{failed, "ratio"}
	if len(p.write) > 0 {
		m["write_p50_ms"] = metric{quantile(p.write, 0.5), "ms"}
		m["write_p99_ms"] = metric{quantile(p.write, 0.99), "ms"}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-16s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	rateWins := windowsFor(int(p.ops), minWindowOps)
	fmt.Printf("samples read=%d (beyond p99: %d) write=%d (beyond p99: %d) ops=%d attempted=%d failed=%d seconds=%.3f windows: rate=%d p50=%d p99=%d\n",
		len(p.read), beyondP99(len(p.read)), len(p.write), beyondP99(len(p.write)), p.ops, p.attempted, p.failed, p.seconds,
		rateWins, windowsFor(len(p.read), 100), windowsFor(len(p.read), 1000))
	for i, w := range p.windows(rateWins) {
		fmt.Printf("window %d reads=%d ops_per_s=%.3f p50_ms=%.4f\n", i, len(w.read), float64(w.ops)/w.seconds, quantile(w.read, 0.5))
	}
}

// beyondP99 counts the samples above the interpolated p99 rank.
func beyondP99(n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(0.99*float64(n-1))
}

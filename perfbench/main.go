// Command perfbench is the repository benchmark: it regenerates the paper's
// evaluation and drives an in-process uveserve with a mixed warm/cold
// request stream on both execution tiers, checking every output against
// the reference digests pinned under digests/. End-to-end times are scaled
// to the host's nominal speed (calib.go).
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload untraced and then traced (CPU profile on), followed by
// the per-layer probes, and prints the per-layer metrics. The last line of
// standard output is one JSON object; the lines before it are a readable
// rendering of the same numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the final JSON line.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// checks counts verified operations and their failures.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) ok() { c.attempted++ }
func (c *checks) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	c.note("FAIL: "+format, args...)
}
func (c *checks) note(format string, args ...any) {
	if len(c.notes) < 40 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) failRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tmp      string
	regen    bool
}

// workload runs one named workload. End-to-end metrics are measured with
// tracing off; the traced run returns the per-layer metrics.
type workload struct {
	name string
	run  func(cfg config, c *checks) (map[string]Metric, error)
}

var workloads = []workload{
	{"sweep-cycle", runSweepCycle},
	{"serve-mixed", runServeMixed},
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "scratch directory for stores")
	flag.BoolVar(&cfg.regen, "regen", false, "rewrite the reference digests from this build (maintenance only)")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var c checks
	metrics, err := w.run(cfg, &c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if cfg.regen {
		fmt.Fprintf(os.Stderr, "perfbench: %s: digests rewritten\n", w.name)
		return
	}
	for _, n := range c.notes {
		fmt.Println(n)
	}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, fail_ratio %.4f\n",
		w.name, cfg.seed, c.attempted, c.failed, c.failRatio())
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, err := json.Marshal(Outcome{
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// Command perfcmp maintains BENCH_simwall.json, the simulator's wall-clock
// trajectory file. It reads `go test -bench -benchmem` output for
// BenchmarkSimWall on stdin and either:
//
//	perfcmp -update BENCH_simwall.json   # rewrite the committed baseline
//	perfcmp -baseline BENCH_simwall.json # gate: fail on >2x regression
//
// In -update mode it also records summary ratios over the cells, among
// them the like-for-like functional-vs-cycle speedup (the same cells timed
// on both tiers). In gate mode only the per-cell figures are compared:
// ns/op, and allocs/op where both runs recorded it. The committed
// baseline's absolute times are from the machine named in its "host"
// field, so the default threshold is a deliberately loose 2x; allocation
// counts do not depend on the host, and the same 2x bound catches a
// hot-loop allocation creeping back in.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Cell is one BenchmarkSimWall sub-benchmark measurement.
type Cell struct {
	Name    string  `json:"name"` // mode/kernel-variant, e.g. "skip/C-UVE"
	NsPerOp float64 `json:"ns_per_op"`
	Cycles  int64   `json:"cycles"` // simulated cycles (0 on the functional tier)
	// AllocsPerOp is heap allocations per run (0 when not recorded).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the BENCH_simwall.json document.
type Baseline struct {
	Host      string `json:"host"`
	Benchmark string `json:"benchmark"`
	Gate      string `json:"gate"`
	Cells     []Cell `json:"cells"`
	// Summary ratios computed from Cells: aggregate cycle-tier (skip) time
	// over functional-tier time for the unfaulted cells, aggregate noskip
	// over skip, and the starved cell's noskip/skip ratio.
	FunctionalSpeedup  float64 `json:"functional_vs_cycle_speedup"`
	SkipSpeedup        float64 `json:"skip_vs_noskip_speedup"`
	SkipSpeedupStarved float64 `json:"skip_vs_noskip_speedup_starved"`
	// Aggregate sanitizer-on time over SanitizeAuto (certificate-elided)
	// time on the certified kernels: the wall-clock the static safety
	// proof buys on verification sweeps.
	SanitizeElisionSpeedup float64 `json:"sanitize_elision_speedup,omitempty"`
}

var benchLine = regexp.MustCompile(`^BenchmarkSimWall/(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(?:\s+(\d+(?:\.\d+)?) cycles)?`)
var allocsField = regexp.MustCompile(`\s(\d+) allocs/op`)
var cpuLine = regexp.MustCompile(`^cpu: (.+)$`)

func main() {
	update := flag.String("update", "", "rewrite this baseline file from the bench output on stdin")
	baseline := flag.String("baseline", "", "gate the bench output on stdin against this baseline file")
	maxRatio := flag.Float64("max-ratio", 2.0, "gate threshold: fail when current ns/op or allocs/op exceeds baseline*ratio")
	flag.Parse()
	if (*update == "") == (*baseline == "") {
		fail("exactly one of -update or -baseline is required")
	}

	host := ""
	var cells []Cell
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if m := cpuLine.FindStringSubmatch(sc.Text()); m != nil {
			host = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		var cyc float64
		if m[3] != "" {
			cyc, _ = strconv.ParseFloat(m[3], 64)
		}
		var allocs float64
		if a := allocsField.FindStringSubmatch(sc.Text()); a != nil {
			allocs, _ = strconv.ParseFloat(a[1], 64)
		}
		cells = append(cells, Cell{Name: m[1], NsPerOp: ns, Cycles: int64(cyc), AllocsPerOp: allocs})
	}
	if err := sc.Err(); err != nil {
		fail("reading stdin: %v", err)
	}
	if len(cells) == 0 {
		fail("no BenchmarkSimWall lines found on stdin")
	}

	if *update != "" {
		writeBaseline(*update, host, cells)
		return
	}
	gate(*baseline, cells, *maxRatio)
}

// gate compares freshly measured cells against the committed baseline.
func gate(path string, cur []Cell, maxRatio float64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fail("%s: %v", path, err)
	}
	curByName := map[string]Cell{}
	for _, c := range cur {
		curByName[c.Name] = c
	}
	bad := 0
	for _, b := range base.Cells {
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfcmp: cell %s missing from current run\n", b.Name)
			bad++
			continue
		}
		if c.Cycles != b.Cycles {
			// A cycle-count change is a model change, not a perf regression;
			// the equivalence suite owns that. Report it for visibility only.
			fmt.Fprintf(os.Stderr, "perfcmp: note: %s simulates %d cycles (baseline %d) — regenerate with -update\n",
				b.Name, c.Cycles, b.Cycles)
		}
		ratio := c.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > maxRatio {
			status = "REGRESSION"
			bad++
		}
		fmt.Printf("%-28s %12.0f ns/op  baseline %12.0f  ratio %.2fx  %s\n",
			b.Name, c.NsPerOp, b.NsPerOp, ratio, status)
		if b.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			aratio := c.AllocsPerOp / b.AllocsPerOp
			astatus := "ok"
			if aratio > maxRatio {
				astatus = "REGRESSION"
				bad++
			}
			fmt.Printf("%-28s %12.0f allocs/op  baseline %9.0f  ratio %.2fx  %s\n",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, aratio, astatus)
		}
	}
	if bad > 0 {
		fail("%d cell figure(s) regressed past %.1fx (baseline host: %s)", bad, maxRatio, base.Host)
	}
}

// writeBaseline writes the full trajectory document.
func writeBaseline(path, host string, cells []Cell) {
	doc := Baseline{
		Host:      host,
		Benchmark: "BenchmarkSimWall (go test -run '^$' -bench '^BenchmarkSimWall$' -benchtime 3x -benchmem .)",
		Gate:      "scripts/perfsmoke.sh fails when any cell's ns/op or allocs/op exceeds 2x this baseline",
		Cells:     cells,
	}
	sum := func(pred func(Cell) bool) float64 {
		var t float64
		for _, c := range cells {
			if pred(c) {
				t += c.NsPerOp
			}
		}
		return t
	}
	isMode := func(mode string) func(Cell) bool {
		return func(c Cell) bool {
			return strings.HasPrefix(c.Name, mode+"/") && !strings.HasSuffix(c.Name, "-starved")
		}
	}
	if fn := sum(isMode("functional")); fn > 0 {
		doc.FunctionalSpeedup = round2(sum(isMode("skip")) / fn)
	}
	if sk := sum(isMode("skip")); sk > 0 {
		doc.SkipSpeedup = round2(sum(isMode("noskip")) / sk)
	}
	if auto := sum(isMode("sanitize-auto")); auto > 0 {
		doc.SanitizeElisionSpeedup = round2(sum(isMode("sanitize-on")) / auto)
	}
	var skStarved, noStarved float64
	for _, c := range cells {
		switch c.Name {
		case "skip/C-UVE-starved":
			skStarved = c.NsPerOp
		case "noskip/C-UVE-starved":
			noStarved = c.NsPerOp
		}
	}
	if skStarved > 0 {
		doc.SkipSpeedupStarved = round2(noStarved / skStarved)
	}

	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fail("%v", err)
	}
	if err := f.Close(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("perfcmp: wrote %s (%d cells, functional %vx, skip %vx, starved skip %vx)\n",
		path, len(cells), doc.FunctionalSpeedup, doc.SkipSpeedup, doc.SkipSpeedupStarved)
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfcmp: "+format+"\n", args...)
	os.Exit(1)
}

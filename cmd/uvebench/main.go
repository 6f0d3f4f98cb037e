// Command uvebench regenerates the paper's evaluation figures and tables
// (§VI) on the simulated Table I machines.
//
// Usage:
//
//	uvebench -exp fig8          # Fig 8 A–D across all 19 kernels
//	uvebench -exp fig8table     # Fig 8 left metadata table
//	uvebench -exp fig8e         # GEMM unrolling ablation
//	uvebench -exp fig9          # vector physical-register sensitivity
//	uvebench -exp fig10         # FIFO depth sensitivity
//	uvebench -exp fig11         # streaming cache-level sensitivity
//	uvebench -exp spm           # stream-processing-module sweep
//	uvebench -exp hw            # §VI-C storage accounting
//	uvebench -exp ablate        # beyond-paper design-choice ablations
//	uvebench -exp table1        # machine configuration
//	uvebench -stalls            # per-kernel cycle/stall attribution (Fig 8.C)
//	uvebench -exp faults        # seeded fault campaigns + state oracle
//	uvebench -exp all           # everything (except faults)
//
// -scale N divides problem sizes by N for quick runs. -j N sizes the
// worker pool that fans the independent simulations out across cores
// (default all cores; -j 1 is fully sequential — the output is
// byte-identical either way). -json emits machine-readable results for
// BENCH_*.json trajectory tracking instead of the text tables.
//
// -fidelity functional replaces the experiments with one sweep of the
// kernel × variant matrix through the program-order tier (output checks
// and memory digests, no timing); combining it with -exp or -stalls is a
// usage error.
//
// -exp faults runs every kernel on UVE and SVE under a grid of seeded
// deterministic fault campaigns and checks each faulted run's final memory
// image against the fault-free run. -faults replaces the default campaign
// template (the grid still varies the seed); -watchdog tightens the
// forward-progress bound. The experiment is excluded from -exp all so the
// default output stays byte-stable.
//
// Runs whose measurements are degenerate (a zero cycle count, a non-finite
// summary value) are reported on stderr and make the process exit 1; the
// JSON document is still emitted, with the affected ratios pinned to 0
// rather than NaN/Inf, so downstream tooling never sees a marshal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig8, fig8table, fig8e, fig9, fig10, fig11, spm, hw, table1, stalls, faults, all)")
	scale := flag.Int("scale", 1, "divide problem sizes by this factor")
	verbose := flag.Bool("v", false, "print each run")
	workers := cliflags.Workers(flag.CommandLine)
	jsonOut := cliflags.JSON(flag.CommandLine)
	faults := cliflags.AddFaults(flag.CommandLine)
	fid := cliflags.AddFidelity(flag.CommandLine)
	stalls := flag.Bool("stalls", false, "shorthand for -exp stalls")
	flag.Parse()

	plan, err := faults.Plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The functional sweep has no experiments to select: an explicit -exp
	// is rejected like the other cycle-tier flags.
	var timingFlags []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" || (f.Name == "stalls" && *stalls) {
			timingFlags = append(timingFlags, "-"+f.Name)
		}
	})
	if err := fid.RejectTimingFlags(timingFlags...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fidelity, err := fid.Parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	o := &bench.Options{
		Scale: *scale, Verbose: *verbose && !*jsonOut, Workers: *workers,
		Faults: plan, Watchdog: faults.Watchdog,
	}

	if fidelity == sim.Functional {
		runFunctionalSweep(o, *jsonOut)
		return
	}

	ids := []string{*exp}
	if *stalls {
		ids = []string{"stalls"}
	} else if *exp == "all" {
		ids = bench.ExperimentIDs
	}

	// One shared Options means the runner's memo table spans the whole
	// invocation, so e.g. the Fig 9 48-PR reference reuses the Fig 8 run.
	var reports []bench.Report
	for _, id := range ids {
		text, rep, err := bench.RunExperiment(id, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		reports = append(reports, rep)
		if !*jsonOut {
			fmt.Println(text)
		}
	}

	if *jsonOut {
		doc := report.New("uvebench")
		doc.Bench = &report.Bench{
			Scale: *scale, Workers: o.Runner().Workers(),
			Runner: o.Runner().Stats(), Experiments: reports,
		}
		if err := emit(&doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if degs := bench.Degenerate(reports); len(degs) > 0 {
		fmt.Fprintf(os.Stderr, "uvebench: %d degenerate measurement(s):\n", len(degs))
		for _, d := range degs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
}

// emit writes a report document to stdout in the canonical rendering.
func emit(doc *report.Document) error {
	b, err := doc.Marshal()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// runFunctionalSweep is the -fidelity functional mode: the full
// kernel×variant matrix through the program-order tier — output checks and
// architectural digests, no cycle tables and no Degenerate gate (every
// timing measurement is deliberately zero on this tier).
func runFunctionalSweep(o *bench.Options, jsonOut bool) {
	rows := bench.FunctionalSweep(o)
	if jsonOut {
		doc := report.New("uvebench")
		doc.Bench = &report.Bench{
			Scale: o.Scale, Workers: o.Runner().Workers(),
			Runner: o.Runner().Stats(), Functional: rows,
		}
		if err := emit(&doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Println(bench.FormatFunctionalSweep(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			os.Exit(1)
		}
	}
}

package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bench"
)

// phaseStats accumulates one measured phase: passes run back to back.
// Pass times and latencies are scaled to the host's nominal speed (see
// calib.go); raw keeps the unscaled pass times.
type phaseStats struct {
	passes []float64   // seconds per pass
	raw    []float64   // seconds per pass, unscaled
	scales []float64   // host scale factor of each pass
	lat    latencies   // every operation of the phase
	blocks []latencies // per pass
	heapMB float64     // largest retained heap at the end of a pass
	wall   time.Duration
	cpu    time.Duration
	runner bench.RunnerStats // summed over passes
}

// passFunc runs one pass, appending its wall time to ps.passes.
type passFunc func(ps *phaseStats) error

// passesFor is the number of passes a run of d measures: d over the
// workload's nominal pass time on the reference host. The count, not the
// clock, ends a run, so every run of a workload measures the same
// multiset of operations and its percentiles and retained heap compare.
func passesFor(d time.Duration, nominal float64) int {
	return max(1, int(d.Seconds()/nominal+0.5))
}

// measure runs n more passes back to back, calibrating the host between
// them and scaling what each pass recorded by the mean of the factors
// measured right before and right after it.
func (ps *phaseStats) measure(n int, pass passFunc) error {
	t0, c0 := time.Now(), cpuTime()
	before := hostScale()
	for i := 0; i < n; i++ {
		np, nh, nm, nb := len(ps.passes), len(ps.lat.hit), len(ps.lat.miss), len(ps.blocks)
		if err := pass(ps); err != nil {
			return err
		}
		after := hostScale()
		f := (before + after) / 2
		before = after
		ps.raw = append(ps.raw, ps.passes[np:]...)
		scaleAll(ps.passes[np:], f)
		scaleAll(ps.lat.hit[nh:], f)
		scaleAll(ps.lat.miss[nm:], f)
		for _, b := range ps.blocks[nb:] {
			scaleAll(b.hit, f)
			scaleAll(b.miss, f)
		}
		ps.scales = append(ps.scales, f)
	}
	ps.wall += time.Since(t0)
	ps.cpu += cpuTime() - c0
	return nil
}

// endToEnd renders the phase's end-to-end metrics.
func (ps *phaseStats) endToEnd(m map[string]Metric) {
	m["sweep_s"] = Metric{median(ps.passes), "s"}
	m["retained_heap_mb"] = Metric{ps.heapMB, "MB"}
	ops := float64(len(ps.lat.hit) + len(ps.lat.miss))
	m["req_per_s"] = Metric{ops / sum(ps.passes), "1/s"}
	ps.print("")
	fmt.Printf("host scale per pass: median %.4g, %.4g to %.4g; unscaled: sweep_s %.4g, req_per_s %.4g\n",
		median(ps.scales), slices.Min(ps.scales), slices.Max(ps.scales), median(ps.raw), ops/sum(ps.raw))
	for _, side := range []string{"hit", "miss"} {
		p50, tail, desc := ps.latency(side)
		m[side+"_p50_ms"] = Metric{p50, "ms"}
		m[side+"_tail_ms"] = Metric{tail, "ms"}
		fmt.Printf("%s latency: p50 %.4g ms, tail %.4g ms (%s)\n", side, p50, tail, desc)
	}
}

// print renders the phase's pass times for a reader.
func (ps *phaseStats) print(label string) {
	fmt.Printf("%s%d passes in %.2f s, %d operations; scaled pass seconds:", label, len(ps.passes),
		ps.wall.Seconds(), len(ps.lat.hit)+len(ps.lat.miss))
	for _, p := range ps.passes {
		fmt.Printf(" %.3g", p)
	}
	fmt.Println()
}

// latency returns the median and tail of one side's latencies. Every pass
// records one block (a sweep, or a block of requests). The median is taken
// per block and the median over blocks reported: a median pooled over a
// sweep's experiments sits on the boundary between two experiments' costs
// and jumps between them. The tail is taken per block too when every block
// holds enough samples for one (21), since the tail of a whole run is an
// extreme order statistic that one block's samples pin far less noisily;
// otherwise it is taken over all of the run's samples.
func (ps *phaseStats) latency(side string) (p50, tail float64, desc string) {
	pick := func(l latencies) []float64 {
		if side == "miss" {
			return l.miss
		}
		return l.hit
	}
	all := pick(ps.lat)
	var p50s, tails, pcts []float64
	small := false
	for _, l := range ps.blocks {
		xs := pick(l)
		t, p := tailOf(xs)
		p50s, tails, pcts = append(p50s, median(xs)), append(tails, t), append(pcts, p)
		small = small || len(xs) < 21
	}
	n := len(all) / len(ps.blocks)
	if small {
		t, pct := tailOf(all)
		return median(p50s), t, fmt.Sprintf("p50 = median over %d blocks of %d samples; tail = p%.1f of all %d", len(ps.blocks), n, pct, len(all))
	}
	return median(p50s), median(tails), fmt.Sprintf("median over %d blocks of ~%d samples; tail = p%.1f per block", len(ps.blocks), n, median(pcts))
}

// workers is the benchmark's parallelism everywhere: runner pools, server
// workers and client connections (the reference host has two CPUs).
const workers = 2

// measured is the shared shape of every workload's timed part. Untraced,
// it measures n passes and returns the end-to-end metrics. Traced, it
// alternates untraced passes with passes under the CPU profiler, half the
// passes each, runs the per-layer probes (also profiled), and returns the
// per-layer metrics with the tracing overhead between the two sets of
// passes. Alternating keeps drift within a run, such as a server's heap
// growing with its job table, out of the overhead.
func measured(cfg config, c *checks, n int, setupS float64, pass passFunc, probe func(m map[string]Metric) error) (map[string]Metric, error) {
	m := map[string]Metric{}
	if !cfg.trace {
		ps := &phaseStats{}
		if err := ps.measure(n, pass); err != nil {
			return nil, err
		}
		m["setup_s"] = Metric{setupS, "s"}
		ps.endToEnd(m)
		return m, nil
	}
	base, traced := &phaseStats{}, &phaseStats{}
	var prof profile
	for i := 0; i < max(1, n/2); i++ {
		if err := base.measure(1, pass); err != nil {
			return nil, err
		}
		if err := prof.record(func() error { return traced.measure(1, pass) }); err != nil {
			return nil, err
		}
	}
	// The workload's own operations, before the probes add theirs.
	m["fail_ratio"] = Metric{c.failRatio(), "ratio"}
	if err := prof.record(func() error { return probe(m) }); err != nil {
		return nil, err
	}
	for _, u := range profUnits {
		m["prof."+u] = Metric{ratio(prof.counts[u], float64(prof.total)), "share"}
	}
	fmt.Printf("profile: %d samples inside cpu.(*Core).Run\n", prof.total)

	base.print("untraced: ")
	traced.print("traced: ")
	m["host.scale"] = Metric{median(append(slices.Clone(base.scales), traced.scales...)), "ratio"}
	m["trace.overhead.sweep_s"] = Metric{ratio(median(traced.passes), median(base.passes)) - 1, "ratio"}
	tracedHit, _, _ := traced.latency("hit")
	baseHit, _, _ := base.latency("hit")
	m["trace.overhead.hit_p50_ms"] = Metric{ratio(tracedHit, baseHit) - 1, "ratio"}
	m["bench.runner.parallel_eff"] = Metric{traced.cpu.Seconds() / (traced.wall.Seconds() * workers), "ratio"}
	np := float64(len(traced.passes))
	m["bench.runner.simulated"] = Metric{float64(traced.runner.Simulated) / np, "count"}
	m["bench.runner.memo_hits"] = Metric{float64(traced.runner.MemoHits) / np, "count"}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endPass records the retained heap while the pass's results are still
// held.
func (ps *phaseStats) endPass() { ps.heapMB = max(ps.heapMB, liveHeapMB()) }

func addRunner(dst *bench.RunnerStats, s bench.RunnerStats) {
	dst.Submitted += s.Submitted
	dst.Simulated += s.Simulated
	dst.MemoHits += s.MemoHits
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// cell is one kernel × variant × size point of the paper's matrix.
type cell struct {
	k    *kernels.Kernel
	v    kernels.Variant
	size int
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/%d", c.k.ID, c.v, c.size) }

var allVariants = []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON}

// matrix is every kernel on the given variants at bench.SizeFor(scale).
func matrix(scale int, vs []kernels.Variant) []cell {
	o := &bench.Options{Scale: scale}
	var out []cell
	for _, k := range kernels.All {
		for _, v := range vs {
			out = append(out, cell{k, v, bench.SizeFor(k, o)})
		}
	}
	return out
}

// buildCells builds (and so lints) every cell's program once: the sweep's
// set-up, which also proves the workload's inputs are well-formed. It takes
// tens of milliseconds, so sweep-cycle repeats it 15 times and reports the
// median.
func buildCells(cells []cell) error {
	for _, c := range cells {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		if inst := c.k.Build(h, c.v, c.size); inst.Err != nil {
			return fmt.Errorf("build %s: %w", c, inst.Err)
		}
	}
	return nil
}

// runExperiment is bench.RunExperiment with the figure drivers' panics on
// simulation errors turned into errors.
func runExperiment(id string, o *bench.Options) (text string, rep bench.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return bench.RunExperiment(id, o)
}

// runSweepCycle is `uvebench -exp all -scale 4 -j 2`: every experiment of
// bench.ExperimentIDs, in order, on a fresh bench.Options per pass. Each
// simulating experiment is one miss. The experiments answered without
// simulating (the text-only tables table1, fig8table and hw, which run back
// to back at the head of the sweep) are timed together as one hit per
// pass: each alone takes 3 to 15 us, and a median pooled over the three
// fell between their costs and jumped between runs. The sweep's memo hits
// happen inside the simulating experiments, where the runner answers them
// alongside the jobs it simulates; they are counted in the runner's
// statistics, not timed apart. One untimed pass warms the process first.
// The experiment set is the paper's and does not depend on the seed.
func runSweepCycle(cfg config, c *checks) (map[string]Metric, error) {
	d, err := loadDigests(cfg.workload, cfg.regen)
	if err != nil {
		return nil, err
	}
	cells := matrix(4, allVariants)
	_, setupS, err := medianSetup(15, func() (struct{}, error) { return struct{}{}, buildCells(cells) }, nil)
	if err != nil {
		return nil, err
	}
	pass := func(ps *phaseStats) error {
		o := &bench.Options{Scale: 4, Workers: workers}
		var sweep, text time.Duration
		var block latencies
		var reps []bench.Report
		for _, id := range bench.ExperimentIDs {
			before := o.Runner().Stats()
			var out string
			var rep bench.Report
			var err error
			dt := timeIt(func() { out, rep, err = runExperiment(id, o) })
			sweep += dt
			if o.Runner().Stats().Simulated == before.Simulated {
				text += dt
			} else {
				ps.lat.add(false, dt)
				block.add(false, dt)
			}
			if err != nil {
				c.fail("%s: %v", id, err)
				continue
			}
			checkExperiment(d, c, id, out, rep)
			reps = append(reps, rep)
		}
		ps.lat.add(true, text)
		block.add(true, text)
		ps.blocks = append(ps.blocks, block)
		for _, msg := range bench.Degenerate(reps) {
			c.fail("%s", msg)
		}
		ps.passes = append(ps.passes, sweep.Seconds())
		addRunner(&ps.runner, o.Runner().Stats())
		ps.endPass()
		runtime.KeepAlive(o)
		return nil
	}
	if cfg.regen {
		return nil, regen(d, pass)
	}
	if err := pass(&phaseStats{}); err != nil {
		return nil, err
	}
	return measured(cfg, c, passesFor(cfg.seconds, 3.3), setupS, pass, func(m map[string]Metric) error {
		return probeLayers(cfg, c, m, cells, nil)
	})
}

// checkExperiment pins one experiment's text and machine-readable report,
// and for Fig 8 every cell's cycles, instructions, rename blocks and bus
// utilization.
func checkExperiment(d *digests, c *checks, id, text string, rep bench.Report) {
	js, err := json.Marshal(rep)
	if err != nil {
		c.fail("%s: report: %v", id, err)
		return
	}
	h := sha256.New()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write(js)
	d.check(c, "exp/"+id, hex.EncodeToString(h.Sum(nil)))
	for _, r := range rep.Fig8 {
		for _, v := range allVariants {
			d.check(c, fmt.Sprintf("fig8/%s/%s", r.ID, v), fmt.Sprintf("size=%d,cycles=%d,inst=%d,rename=%.6g,busu=%.6g",
				r.Size, r.Cycles[v], r.Inst[v], r.Rename[v], r.BusU[v]))
		}
	}
}

// regen runs one pass with the digest table in record mode and saves it.
func regen(d *digests, pass passFunc) error {
	if err := pass(&phaseStats{}); err != nil {
		return err
	}
	return d.save()
}

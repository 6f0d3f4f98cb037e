package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// steadyCore assembles the cycle-tier machine for one kernel × variant
// cell at bench scale 4, the way sim.Run does, and steps it warm cycles.
// The engine is nil on the baselines.
func steadyCore(t *testing.T, id string, v kernels.Variant, warm int) (*cpu.Core, *engine.Engine) {
	t.Helper()
	k := kernels.ByID(id)
	o := sim.DefaultOptions(v)
	h := mem.NewHierarchy(o.Hier)
	inst := k.Build(h, v, bench.SizeFor(k, &bench.Options{Scale: 4}))
	if inst.Err != nil {
		t.Fatalf("%s/%s: %v", id, v, inst.Err)
	}
	var eng *engine.Engine
	if v == kernels.UVE {
		eng = engine.New(o.Eng, h)
	}
	core := cpu.New(o.Core, inst.Prog, h, eng)
	for r, val := range inst.IntArgs {
		core.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		core.SetFPReg(r, a.W, a.V)
	}
	for i := 0; i < warm; i++ {
		core.Step()
	}
	return core, eng
}

// TestStepSteadyStateAllocs is the allocation gate on the cycle loop. Once
// a core has warmed up — its ROB, queues, MSHR tables and stream FIFOs at
// their working sizes — Step, with the streaming engine and the memory
// hierarchy below it, allocates nothing per cycle. The one exception is
// per stream configured: its stream-table entry and its descriptor (two
// objects; IRSmk's UVE code configures 20 streams per pass). The count is
// exact: AllocsPerRun over one run of steps Steps.
func TestStepSteadyStateAllocs(t *testing.T) {
	const warm, steps = 1000, 1000
	for _, c := range []struct {
		id string
		v  kernels.Variant
	}{
		{"C", kernels.UVE}, {"C", kernels.SVE}, {"K", kernels.UVE},
	} {
		core, eng := steadyCore(t, c.id, c.v, warm)
		var configs uint64
		allocs := testing.AllocsPerRun(1, func() {
			var before uint64
			if eng != nil {
				before = eng.Stats.ConfigsCompleted
			}
			for i := 0; i < steps; i++ {
				core.Step()
			}
			if eng != nil {
				configs = eng.Stats.ConfigsCompleted - before
			}
		})
		if core.Halted() {
			t.Fatalf("%s/%s halted inside the window; the gate would measure the drain", c.id, c.v)
		}
		t.Logf("%s/%s: %.0f allocations in %d steps, %d stream configurations", c.id, c.v, allocs, steps, configs)
		if allocs > float64(2*configs) {
			t.Errorf("%s/%s: %.0f allocations in %d steady-state Steps, want at most 2 per stream configured (%d)",
				c.id, c.v, allocs, steps, configs)
		}
	}
}

// functionalMachine builds one kernel × variant cell at bench scale 4 and
// the functional-tier machine over it, the way sim.Run does.
func functionalMachine(t *testing.T, id string, v kernels.Variant) (*funcsim.Machine, *kernels.Instance) {
	t.Helper()
	k := kernels.ByID(id)
	o := sim.DefaultOptions(v)
	h := mem.NewHierarchy(o.Hier)
	inst := k.Build(h, v, bench.SizeFor(k, &bench.Options{Scale: 4}))
	if inst.Err != nil {
		t.Fatalf("%s/%s: %v", id, v, inst.Err)
	}
	fm := funcsim.New(funcsim.Config{VecBytes: o.Core.VecBytes}, inst.Prog, h.Mem)
	for r, val := range inst.IntArgs {
		fm.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		fm.SetFPReg(r, a.W, a.V)
	}
	return fm, inst
}

// TestFunctionalRunAllocs is the allocation gate on the functional tier.
// Vector results are computed into a reused scratch buffer and copied into
// per-register lane storage, and consumed chunks are read into per-operand
// buffers, so interpreting an instruction allocates nothing: the baselines
// allocate nothing at all. What remains on UVE is per stream configured:
// its record, descriptor and iterator, and the growth of its part, address
// and chunk tables (one address table per stream, not a slice per chunk,
// so this grows with the log of the stream's length). Each cell is warmed
// by a first run on another machine; the measured run is one whole fresh
// run, as perfbench's funcsim.run_allocs_per_inst counts it.
func TestFunctionalRunAllocs(t *testing.T) {
	// C/UVE's three long streams cost 33 allocations each, IRSmk's 60
	// short ones 21 on average.
	const perConfig = 40
	for _, c := range []struct {
		id string
		v  kernels.Variant
	}{
		{"C", kernels.UVE}, {"C", kernels.SVE}, {"K", kernels.UVE}, {"K", kernels.SVE},
	} {
		fm, inst := functionalMachine(t, c.id, c.v)
		configs := 0
		calls := 0
		// AllocsPerRun(1, f) calls f twice and counts the second call: the
		// first, a warm-up run, also builds the measured run's machine.
		allocs := testing.AllocsPerRun(1, func() {
			if err := fm.Run(); err != nil {
				t.Fatal(err)
			}
			if calls++; calls > 1 {
				return
			}
			fm, inst = functionalMachine(t, c.id, c.v)
			fm.SetStepHook(func(pc int) {
				if in := inst.Prog.At(pc); in.Op == isa.OpSCfg && in.Cfg.End {
					configs++
				}
			})
		})
		if err := inst.Check(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s/%s: %.0f allocations in %d instructions, %d stream configurations", c.id, c.v, allocs, fm.Committed(), configs)
		if allocs > float64(perConfig*configs) {
			t.Errorf("%s/%s: %.0f allocations in %d instructions, want at most %d per stream configured (%d)",
				c.id, c.v, allocs, fm.Committed(), perConfig, configs)
		}
	}
}

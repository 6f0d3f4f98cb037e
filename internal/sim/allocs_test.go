package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/engine"
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

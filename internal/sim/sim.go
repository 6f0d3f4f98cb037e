// Package sim assembles complete machines (core + memory hierarchy, plus
// the Streaming Engine for UVE) and runs kernel instances on them,
// collecting the statistics the paper's evaluation reports.
package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Options overrides pieces of the Table I machine for sensitivity sweeps.
type Options struct {
	Core cpu.Config
	Eng  engine.Config
	Hier mem.HierarchyConfig
	// Fidelity selects the execution tier: Cycle (default) runs the
	// detailed machine; Functional interprets the program in program order
	// for architectural results only (no cycles, no timing stats, and
	// incompatible with Trace and Faults).
	Fidelity Fidelity
	// SkipCheck skips output validation (benchmark loops that re-run the
	// same instance's timing many times).
	SkipCheck bool
	// Sanitize selects the streaming engine's shadow address tracker, which
	// records every byte live streams touch and reports runtime collisions
	// (Result.Collisions). UVE only; byte-granular, so meant for
	// verification runs at test sizes, not timing experiments. SanitizeAuto
	// elides tracking when the program's static safety certificate proves
	// every dependence pair disjoint (see Result.SanitizerElided).
	Sanitize SanitizeMode
	// Trace, when non-nil, receives typed instrumentation events from the
	// core and (UVE) the streaming engine. Timing is unaffected: the same
	// cycles are simulated with or without a recorder.
	Trace trace.Recorder
	// Faults, when non-nil and enabled, runs the instance under the seeded
	// deterministic fault injectors (NACKed line fetches, mid-stream page
	// faults, DRAM latency spikes, forced generation pauses at dimension
	// boundaries). Injection perturbs timing only; architectural results
	// must match the fault-free run — the resilience oracle in
	// fault_test.go enforces it. A fresh Injector is built per run, so the
	// same Plan always yields the same cycle count.
	Faults *fault.Plan
	// Watchdog, when positive, overrides Core.Watchdog (forward-progress
	// bound in cycles without a commit).
	Watchdog int64
	// MaxCycles, when positive, overrides Core.MaxCycles (hard cycle bound
	// for fault campaigns; livelock becomes a *cpu.WatchdogError).
	MaxCycles int64
	// HashMem records an FNV-1a digest of the final memory image in
	// Result.MemHash — the architectural-state oracle fault campaigns
	// compare against the fault-free run.
	HashMem bool
}

// Clone returns a deep copy: shared pointer fields (Eng.ForceLevel, Faults)
// are duplicated so mutating the copy — or the original, as bench jobs do
// between submit and execution — cannot alias. Trace recorders are shared
// by reference; a recorder is a sink, not configuration.
func (o *Options) Clone() Options {
	c := *o
	if o.Eng.ForceLevel != nil {
		lv := *o.Eng.ForceLevel
		c.Eng.ForceLevel = &lv
	}
	if o.Faults != nil {
		p := *o.Faults
		c.Faults = &p
	}
	return c
}

// DefaultOptions returns the Table I machine for the given variant.
func DefaultOptions(v kernels.Variant) Options {
	o := Options{
		Core: cpu.DefaultConfig(),
		Eng:  engine.DefaultConfig(),
		Hier: mem.DefaultHierarchyConfig(),
	}
	o.Core.VecBytes = v.VecBytes()
	o.Eng.VecBytes = v.VecBytes()
	return o
}

// Result carries the measurements used by the §VI figures.
type Result struct {
	Variant   kernels.Variant
	Kernel    string
	Size      int
	Cycles    int64
	Committed uint64
	Core      cpu.Stats
	Eng       engine.Stats
	DRAM      mem.DRAMStats
	L1        mem.CacheStats
	L2        mem.CacheStats
	// BusUtil is (ReadBW+WriteBW)/PeakBW — the Fig 8.D metric.
	BusUtil float64
	// Collisions holds the stream sanitizer's observations (Options.Sanitize).
	Collisions []engine.Collision
	// Traffic holds the committed per-stream work records (UVE cycle runs
	// only) the static cost model validates against.
	Traffic []engine.StreamTraffic
	// Faults counts the injections actually fired (Options.Faults).
	Faults fault.Stats
	// MemHash is the final memory-image digest (Options.HashMem).
	MemHash uint64
	// SanitizerElided reports that SanitizeAuto skipped shadow tracking
	// because the program's safety certificate proved every dependence pair
	// disjoint — the sanitizer could only have observed zero collisions.
	SanitizerElided bool
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Run builds the kernel at the given size for the variant and executes it
// to completion, validating the output against the kernel's reference.
// size == 0 runs the kernel's DefaultSize; negative sizes are an error.
// Run is RunContext with a background (never-canceled) context.
func Run(k *kernels.Kernel, v kernels.Variant, size int, opts *Options) (*Result, error) {
	return RunContext(context.Background(), k, v, size, opts)
}

// RunBuilt is RunBuiltContext with a background (never-canceled) context.
func RunBuilt(id string, v kernels.Variant, size int, opts *Options, build func(h *mem.Hierarchy) *kernels.Instance) (*Result, error) {
	return RunBuiltContext(context.Background(), id, v, size, opts, build)
}

// RunBuiltContext assembles the Table I machine for the variant (core +
// memory hierarchy, plus the Streaming Engine for UVE), runs the instance
// the build callback constructs against that hierarchy, and validates its
// output. It is the single execution path shared by Run and by custom
// instances such as the Fig 8.E unrolled GEMMs; id labels the Result, and
// every error it returns is named "id/variant n=size: ...".
// The context is polled at cycle-batch granularity; a done context aborts
// the run with a *CanceledError.
func RunBuiltContext(ctx context.Context, id string, v kernels.Variant, size int, opts *Options, build func(h *mem.Hierarchy) *kernels.Instance) (*Result, error) {
	return runBuilt(ctx, id, id, v, size, opts, build)
}

// runBuilt is RunBuiltContext with a separate error label: the one layer
// that names a job, as "name/variant n=size". A nil opts runs the Table I
// machine for the variant; a done context aborts before the build.
func runBuilt(ctx context.Context, name, id string, v kernels.Variant, size int, opts *Options, build func(h *mem.Hierarchy) *kernels.Instance) (*Result, error) {
	if opts == nil {
		o := DefaultOptions(v)
		opts = &o
	}
	var res *Result
	err := ctx.Err()
	if err != nil {
		err = &CanceledError{Err: err}
	} else {
		h := mem.NewHierarchy(opts.Hier)
		inst := build(h)
		if err = inst.Err; err == nil {
			res, err = Execute(ctx, h, inst, v == kernels.UVE, opts)
		}
	}
	if res != nil {
		res.Variant, res.Kernel, res.Size = v, id, size
	}
	if err != nil {
		return res, fmt.Errorf("%s/%s n=%d: %w", name, v, size, err)
	}
	return res, nil
}

// Execute runs a built instance on h, the one place a machine is
// assembled: on the cycle tier the core (plus the Streaming Engine when
// streaming is set, and the fault injectors when o.Faults is enabled), on
// the functional tier the program-order interpreter. o is read, never
// modified. Injector hooks installed on h are cleared before Execute
// returns, so callers may reuse h across runs. The context is polled at
// cycle-batch (functional tier: instruction-batch) granularity, so callers
// check a context that is done before the run themselves. Errors are
// unnamed; an output mismatch returns the measured Result alongside its
// error. Watchdog trips and cancellations become errors; any other panic
// is a modeling bug and propagates.
func Execute(ctx context.Context, h *mem.Hierarchy, inst *kernels.Instance, streaming bool, o *Options) (*Result, error) {
	core := o.Core
	if o.Watchdog > 0 {
		core.Watchdog = o.Watchdog
	}
	if o.MaxCycles > 0 {
		core.MaxCycles = o.MaxCycles
	}
	sanitize, elided := o.resolveSanitize(streaming, inst)
	var res *Result
	var err error
	if o.Fidelity == Functional {
		res, err = runFunctional(ctx, h, inst, core, sanitize, o)
	} else {
		res, err = runCycle(ctx, h, inst, streaming, core, sanitize, o)
	}
	if err != nil {
		return nil, err
	}
	res.SanitizerElided = elided
	if o.HashMem {
		res.MemHash = h.Mem.HashExtents()
	}
	if !o.SkipCheck && inst.Check != nil {
		if err := inst.Check(); err != nil {
			return res, fmt.Errorf("output mismatch: %w", err)
		}
	}
	return res, nil
}

// runCycle is Execute's detailed tier: the out-of-order core, the
// Streaming Engine and the memory hierarchy simulated cycle by cycle.
func runCycle(ctx context.Context, h *mem.Hierarchy, inst *kernels.Instance, streaming bool, cfg cpu.Config, sanitize bool, o *Options) (*Result, error) {
	var inj *fault.Injector
	if o.Faults != nil && o.Faults.Enabled() {
		inj = fault.NewInjector(*o.Faults)
		h.TLB.Inject = inj.PageFault
		h.DRAM.Inject = inj.DRAMDelay
		defer func() {
			h.TLB.Inject = nil
			h.DRAM.Inject = nil
		}()
	}
	var eng *engine.Engine
	if streaming {
		eng = engine.New(o.Eng, h)
		if sanitize {
			eng.EnableSanitizer()
		}
		if o.Trace != nil {
			eng.SetRecorder(o.Trace)
		}
		if inj != nil {
			eng.SetInjector(inj)
		}
	}
	core := cpu.New(cfg, inst.Prog, h, eng)
	if o.Trace != nil {
		core.SetRecorder(o.Trace)
	}
	for r, val := range inst.IntArgs {
		core.SetIntReg(r, val)
	}
	for r, a := range inst.FPArgs {
		core.SetFPReg(r, a.W, a.V)
	}
	if ctx.Done() != nil {
		core.SetCancel(func(cycle int64) {
			if err := ctx.Err(); err != nil {
				panic(&CanceledError{Cycle: cycle, Err: err})
			}
		})
	}
	cycles, err := runCore(core, o)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Cycles:    cycles,
		Committed: core.Stats.Committed,
		Core:      core.Stats,
		DRAM:      h.DRAM.Stats,
		L1:        h.L1D.Stats,
		L2:        h.L2.Stats,
		BusUtil:   h.DRAM.Utilization(cycles),
	}
	if eng != nil {
		res.Eng = eng.Stats
		res.Collisions = eng.Collisions()
		res.Traffic = eng.Traffic()
	}
	if inj != nil {
		res.Faults = inj.Stats
	}
	return res, nil
}

// runCore executes the core, converting a watchdog abort (livelock or
// cycle-bound trip, expected under adversarial fault plans) or a context
// cancellation (the core's cancel check panics a *CanceledError) into an
// error — for watchdogs, one that carries the structured diagnostic and,
// when the run was traced into a Collector, the tail of the event ring for
// post-mortem context. Other panics are modeling bugs and propagate.
func runCore(core *cpu.Core, o *Options) (cycles int64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch e := r.(type) {
		case *cpu.WatchdogError:
			err = fmt.Errorf("%w%s", e, traceTail(o.Trace))
		case *CanceledError:
			err = e
		default:
			panic(r)
		}
	}()
	return core.Run(), nil
}

// traceTail renders the last few retained trace events for the watchdog
// diagnostic (empty unless the run recorded into a *trace.Collector).
func traceTail(r trace.Recorder) string {
	const tail = 12
	c, ok := r.(*trace.Collector)
	if !ok || c == nil {
		return ""
	}
	evs := c.Events()
	if len(evs) == 0 {
		return ""
	}
	if len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nlast %d trace events:\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(&b, "  cycle %d: %s (%d, %d, %d)\n", e.Cycle, e.Kind, e.Arg0, e.Arg1, e.Arg2)
	}
	return strings.TrimRight(b.String(), "\n")
}

// MustRun is Run that fails the calling benchmark/test via panic on error.
func MustRun(k *kernels.Kernel, v kernels.Variant, size int, opts *Options) *Result {
	r, err := Run(k, v, size, opts)
	if err != nil {
		panic(err)
	}
	return r
}

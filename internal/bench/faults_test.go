package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBenchMemoKeyCoversOptions asserts every sim.Options field that
// changes what a simulation computes or measures moves the config hash —
// the one configuration identity behind both the runner's memo key and
// FingerprintJob. A field it missed would let two different runs share a
// result; the reflection pass makes a newly added Options field fail here
// until it is given a mutation (and a place in jobConfigFP).
func TestBenchMemoKeyCoversOptions(t *testing.T) {
	k := kernels.ByID("C")
	base := func() *sim.Options {
		o := sim.DefaultOptions(kernels.UVE)
		return &o
	}
	job := func(o *sim.Options) *Job { return &Job{Kernel: k, Variant: kernels.UVE, Size: 32, Opts: o} }
	key := func(j *Job) cellKey {
		t.Helper()
		ck, err := keyOf(j)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	ref := key(job(base())).cfg

	plan := fault.DefaultPlan(3)
	l2 := arch.LevelL2
	mutations := map[string]func(o *sim.Options){
		"Core":         func(o *sim.Options) { o.Core.ROBSize++ },
		"Eng":          func(o *sim.Options) { o.Eng.FIFODepth++ },
		"ForceLevel":   func(o *sim.Options) { o.Eng.ForceLevel = &l2 },
		"Hier":         func(o *sim.Options) { o.Hier.L2.SizeBytes *= 2 },
		"Fidelity":     func(o *sim.Options) { o.Fidelity = sim.Functional },
		"SkipCheck":    func(o *sim.Options) { o.SkipCheck = true },
		"Sanitize":     func(o *sim.Options) { o.Sanitize = sim.SanitizeOn },
		"SanitizeAuto": func(o *sim.Options) { o.Sanitize = sim.SanitizeAuto },
		"Trace":        func(o *sim.Options) { o.Trace = trace.NewCollector(8, 0) },
		"Faults":       func(o *sim.Options) { o.Faults = &plan },
		"Watchdog":     func(o *sim.Options) { o.Watchdog = 12345 },
		"MaxCycles":    func(o *sim.Options) { o.MaxCycles = 99999 },
		"HashMem":      func(o *sim.Options) { o.HashMem = true },
	}
	opts := reflect.TypeOf(sim.Options{})
	for i := 0; i < opts.NumField(); i++ {
		if name := opts.Field(i).Name; mutations[name] == nil {
			t.Errorf("sim.Options.%s has no mutation here: decide whether it shapes results and cover it in jobConfigFP", name)
		}
	}
	for name, mut := range mutations {
		o := base()
		mut(o)
		if key(job(o)).cfg == ref {
			t.Errorf("Options.%s does not move the config hash", name)
		}
	}

	// Equal fault plans behind distinct pointers share a key.
	pa, pb := fault.DefaultPlan(3), fault.DefaultPlan(3)
	oa, ob := base(), base()
	oa.Faults, ob.Faults = &pa, &pb
	if key(job(oa)) != key(job(ob)) {
		t.Error("equal fault plans behind different pointers got different keys")
	}

	// Size 0 runs the kernel's DefaultSize, so it names the same cell; nil
	// Opts are the variant's defaults.
	if key(&Job{Kernel: k, Variant: kernels.UVE}) != key(&Job{Kernel: k, Variant: kernels.UVE, Size: k.DefaultSize, Opts: base()}) {
		t.Error("Size 0 / nil Opts and DefaultSize / default Opts got different keys")
	}
}

// TestRunnerSnapshotsOptionsAtSubmit: mutating a caller-owned plan after
// RunAll must neither corrupt the memoized result nor let a re-submission
// with the old value miss the memo.
func TestRunnerSnapshotsOptionsAtSubmit(t *testing.T) {
	k := kernels.ByID("C")
	r := NewRunner(2)
	plan := fault.DefaultPlan(1)
	o := sim.DefaultOptions(kernels.UVE)
	o.Faults = &plan
	o.HashMem = true

	first, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 2 // caller mutates the shared pointee after submission

	fresh := fault.DefaultPlan(1)
	o2 := sim.DefaultOptions(kernels.UVE)
	o2.Faults = &fresh
	o2.HashMem = true
	second, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o2})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 1 || st.MemoHits != 1 {
		t.Fatalf("seed-1 resubmission missed the memo: %+v", st)
	}
	if first.Cycles != second.Cycles || first.MemHash != second.MemHash {
		t.Fatal("memoized result changed under caller mutation")
	}

	// The mutated plan is a different simulation.
	third, err := r.Run(Job{Kernel: k, Variant: kernels.UVE, Size: 64, Opts: &o})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != 2 {
		t.Fatalf("seed-2 plan memo-shared with seed-1: %+v", st)
	}
	if third.MemHash != first.MemHash {
		t.Fatal("fault seeds changed architectural state")
	}
}

// TestFaultCampaignSmall runs the campaign grid at tiny sizes: every row
// must pass the state oracle, and the rendering must be deterministic
// across independent Options (the check.sh fault-smoke gate relies on it).
func TestFaultCampaignSmall(t *testing.T) {
	rows := FaultCampaign(&Options{Scale: 1000})
	if len(rows) != len(kernels.All)*2*len(faultSeeds) {
		t.Fatalf("campaign produced %d rows", len(rows))
	}
	var injected uint64
	for i := range rows {
		r := &rows[i]
		if r.Err != "" {
			t.Errorf("%s/%s seed=%#x: %s", r.ID, r.Variant, r.Seed, r.Err)
		} else if !r.StateOK {
			t.Errorf("%s/%s seed=%#x: state oracle failed", r.ID, r.Variant, r.Seed)
		}
		injected += r.Injected.Total()
	}
	if injected == 0 {
		t.Error("campaign injected nothing")
	}

	again := FormatFaultCampaign(FaultCampaign(&Options{Scale: 1000}))
	if got := FormatFaultCampaign(rows); got != again {
		t.Error("campaign output not deterministic across runs")
	}
	if !strings.Contains(again, "state") {
		t.Error("campaign table missing header")
	}
}

// TestFaultCampaignRowsOwnErrors: each failed row reports its own job's
// error, not the first failure of the campaign. The failing jobs are
// builds that refuse with distinct messages, so nothing has to livelock.
func TestFaultCampaignRowsOwnErrors(t *testing.T) {
	failing := func(msg string) Job {
		return Job{Key: msg, Variant: kernels.UVE, Build: func(*mem.Hierarchy) *kernels.Instance {
			return &kernels.Instance{Err: errors.New(msg)}
		}}
	}
	k := kernels.ByID("C")
	ok := Job{Kernel: k, Variant: kernels.UVE, Size: 64}
	groups := []faultGroup{{k, kernels.UVE, 64}, {k, kernels.UVE, 64}}
	jobs := []Job{
		ok, failing("first-a"), ok, failing("first-c"),
		ok, ok, failing("second-b"), ok,
	}
	rows := campaignRows(NewRunner(2), groups, jobs)
	want := []string{"first-a", "", "first-c", "", "second-b", ""}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if want[i] == "" {
			if r.Err != "" || r.Cycles == 0 {
				t.Errorf("row %d (seed %#x): err %q, cycles %d; want a clean run", i, r.Seed, r.Err, r.Cycles)
			}
			continue
		}
		if !strings.Contains(r.Err, want[i]) {
			t.Errorf("row %d (seed %#x): err %q, want its own job's %q", i, r.Seed, r.Err, want[i])
		}
	}
}

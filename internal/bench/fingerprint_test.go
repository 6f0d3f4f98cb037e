package bench

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFingerprintJobStable: the fingerprint is a pure function of the
// job's content — equal jobs hash equal across calls.
func TestFingerprintJobStable(t *testing.T) {
	j := Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96}
	h1, err := FingerprintJob(j)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := FingerprintJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("same job fingerprinted differently across calls")
	}
}

// TestFingerprintJobSeparates: kernel, variant, size and every
// result-shaping config axis move the fingerprint.
func TestFingerprintJobSeparates(t *testing.T) {
	base := Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96}
	h0, err := FingerprintJob(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Job{
		"kernel":  {Kernel: kernels.ByID("C"), Variant: kernels.UVE, Size: 96},
		"variant": {Kernel: kernels.ByID("A"), Variant: kernels.SVE, Size: 96},
		"size":    {Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 128},
	}
	opt := func(mut func(o *sim.Options)) Job {
		o := sim.DefaultOptions(kernels.UVE)
		mut(&o)
		return Job{Kernel: kernels.ByID("A"), Variant: kernels.UVE, Size: 96, Opts: &o}
	}
	variants["fidelity"] = opt(func(o *sim.Options) { o.Fidelity = sim.Functional })
	variants["sanitize"] = opt(func(o *sim.Options) { o.Sanitize = sim.SanitizeOn })
	variants["faults"] = opt(func(o *sim.Options) { p := fault.DefaultPlan(1); o.Faults = &p })
	variants["traced"] = opt(func(o *sim.Options) { o.Trace = trace.NewCollector(16, 0) })
	variants["hashmem"] = opt(func(o *sim.Options) { o.HashMem = true })
	for name, j := range variants {
		h, err := FingerprintJob(j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}

	// Trace identity reduces to presence: two different collectors are the
	// same fingerprint (the runner keeps per-collector runs apart by never
	// memoizing traced jobs).
	ta, err := FingerprintJob(opt(func(o *sim.Options) { o.Trace = trace.NewCollector(16, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := FingerprintJob(opt(func(o *sim.Options) { o.Trace = trace.NewCollector(32, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Error("trace recorder identity leaked into the fingerprint")
	}
}

// TestFingerprintJobDefaultSize: Size 0 fingerprints identically to the
// kernel's DefaultSize, matching what execution would run.
func TestFingerprintJobDefaultSize(t *testing.T) {
	k := kernels.ByID("A")
	h0, err := FingerprintJob(Job{Kernel: k, Variant: kernels.UVE})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := FingerprintJob(Job{Kernel: k, Variant: kernels.UVE, Size: k.DefaultSize})
	if err != nil {
		t.Fatal(err)
	}
	if h0 != hd {
		t.Fatal("Size 0 and DefaultSize fingerprint differently")
	}
}

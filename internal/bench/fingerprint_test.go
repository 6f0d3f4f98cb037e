package bench

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
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

// TestFingerprintMemoMatchesFingerprintJob: over the whole paper matrix at
// scale 4, on both tiers, traced and untraced, the memo returns exactly
// what FingerprintJob returns — on the miss that builds the cell and on
// the hit that does not.
func TestFingerprintMemoMatchesFingerprintJob(t *testing.T) {
	var m FingerprintMemo
	cells := 0
	for _, k := range kernels.All {
		size := SizeFor(k, &Options{Scale: 4})
		for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
			for _, fid := range []sim.Fidelity{sim.Cycle, sim.Functional} {
				for _, traced := range []bool{false, true} {
					o := sim.DefaultOptions(v)
					o.Fidelity = fid
					if traced {
						o.Trace = trace.NewCollector(16, 0)
					}
					j := Job{Kernel: k, Variant: v, Size: size, Opts: &o}
					want, err := FingerprintJob(j)
					if err != nil {
						t.Fatalf("%s/%s %s traced=%v: %v", k.ID, v, fid, traced, err)
					}
					for pass := 0; pass < 2; pass++ {
						got, err := m.Fingerprint(j)
						if err != nil || got != want {
							t.Fatalf("%s/%s %s traced=%v pass %d: memo = %s, %v; FingerprintJob = %s",
								k.ID, v, fid, traced, pass, got, err, want)
						}
					}
					cells++
				}
			}
		}
	}
	if st := m.Stats(); st.Built != cells || st.MemoHits != cells {
		t.Errorf("stats %+v over %d cells, want each built once and answered once from the memo", st, cells)
	}
}

// TestFingerprintMemoKeepsNoFailures: a cell whose build fails errors the
// same way through the memo as through FingerprintJob, every time, and
// leaves nothing behind.
func TestFingerprintMemoKeepsNoFailures(t *testing.T) {
	var m FingerprintMemo
	// GEMM's UVE code needs N to be a multiple of the 16-lane vector.
	j := Job{Kernel: kernels.ByID("D"), Variant: kernels.UVE, Size: 5}
	_, want := FingerprintJob(j)
	if want == nil {
		t.Fatal("D/UVE n=5 built; the test needs a failing build")
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := m.Fingerprint(j); err == nil || err.Error() != want.Error() {
			t.Fatalf("pass %d: err = %v, want %v", pass, err, want)
		}
	}
	if len(m.fps) != 0 || len(m.order) != 0 {
		t.Errorf("failed build memoized: %d entries", len(m.fps))
	}
	if st := m.Stats(); st.Built != 2 || st.MemoHits != 0 {
		t.Errorf("stats %+v, want 2 builds and no memo hits", st)
	}
	if _, err := m.Fingerprint(Job{Variant: kernels.UVE}); err == nil {
		t.Error("a job with neither Kernel nor Build fingerprinted")
	}
}

// TestFingerprintMemoBounded: past its capacity the memo evicts its oldest
// cells, holding at most fingerprintMemoCap, and an evicted cell rebuilds
// to the same fingerprint. The cells are custom builds keyed apart, four
// distinct programs among them, each a small SAXPY.
func TestFingerprintMemoBounded(t *testing.T) {
	const extra = 3
	k := kernels.ByID("C")
	job := func(i int) Job {
		n := 16 * (1 + i%4)
		return Job{Key: fmt.Sprintf("cell-%d", i), Variant: kernels.SVE, Size: n,
			Build: func(h *mem.Hierarchy) *kernels.Instance { return k.Build(h, kernels.SVE, n) }}
	}
	var m FingerprintMemo
	for i := 0; i < fingerprintMemoCap+extra; i++ {
		if _, err := m.Fingerprint(job(i)); err != nil {
			t.Fatal(err)
		}
		if len(m.fps) > fingerprintMemoCap || len(m.order) > fingerprintMemoCap {
			t.Fatalf("after %d cells the memo holds %d (%d in order), cap %d", i+1, len(m.fps), len(m.order), fingerprintMemoCap)
		}
	}
	if len(m.fps) != fingerprintMemoCap {
		t.Errorf("memo holds %d cells, want a full %d", len(m.fps), fingerprintMemoCap)
	}
	for i := 0; i < extra; i++ {
		j := job(i)
		if ck, _ := keyOf(&j); m.fps[ck] != (wire.Hash{}) {
			t.Fatalf("cell %d survived eviction", i)
		}
	}
	built := m.Stats().Built
	for i := 0; i < 2; i++ {
		want, err := FingerprintJob(job(i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.Fingerprint(job(i)); err != nil || got != want {
			t.Fatalf("evicted cell %d re-fingerprinted to %s (%v), want %s", i, got, err, want)
		}
	}
	if st := m.Stats(); st.Built != built+2 || st.MemoHits != 0 {
		t.Errorf("stats %+v, want the evicted cells rebuilt (%d builds) and no memo hits", st, built+2)
	}
}

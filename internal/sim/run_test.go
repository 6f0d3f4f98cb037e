package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/program"
)

// badKernel returns a kernel whose instance halts immediately but whose
// output check always fails — the only way to exercise Run's validation
// error path without a real modeling bug.
func badKernel() *kernels.Kernel {
	return &kernels.Kernel{
		ID: "ZZ", Name: "always-wrong", DefaultSize: 16,
		Build: func(h *mem.Hierarchy, v kernels.Variant, size int) *kernels.Instance {
			p := program.NewBuilder("always-wrong").I(isa.Halt()).MustBuild()
			return &kernels.Instance{Prog: p, Check: func() error { return errors.New("synthetic mismatch") }}
		},
	}
}

func TestRunRejectsNilKernel(t *testing.T) {
	if _, err := Run(nil, kernels.SVE, 16, nil); err == nil {
		t.Fatal("Run(nil kernel) must error, not panic")
	}
}

func TestRunRejectsNegativeSize(t *testing.T) {
	_, err := Run(badKernel(), kernels.SVE, -4, nil)
	if err == nil || !strings.Contains(err.Error(), "invalid size") {
		t.Fatalf("err = %v, want invalid-size error", err)
	}
}

func TestRunDefaultsZeroSize(t *testing.T) {
	k := badKernel()
	res, _ := Run(k, kernels.SVE, 0, nil)
	if res == nil || res.Size != k.DefaultSize {
		t.Fatalf("size-0 run should use DefaultSize %d, got %+v", k.DefaultSize, res)
	}
}

func TestRunReportsCheckFailure(t *testing.T) {
	res, err := Run(badKernel(), kernels.SVE, 16, nil)
	if err == nil || !strings.Contains(err.Error(), "output mismatch") {
		t.Fatalf("err = %v, want output-mismatch error", err)
	}
	if !strings.Contains(err.Error(), "always-wrong/SVE") {
		t.Errorf("error %q should name the kernel and variant", err)
	}
	if res == nil || res.Cycles <= 0 {
		t.Error("failed validation must still return the measured result")
	}
}

func TestRunSkipCheckSuppressesValidation(t *testing.T) {
	opts := DefaultOptions(kernels.SVE)
	opts.SkipCheck = true
	if _, err := Run(badKernel(), kernels.SVE, 16, &opts); err != nil {
		t.Fatalf("SkipCheck run errored: %v", err)
	}
}

func TestRunBuiltLabelsResult(t *testing.T) {
	res, err := RunBuilt("custom-id", kernels.SVE, 8, nil, func(h *mem.Hierarchy) *kernels.Instance {
		p := program.NewBuilder("custom").I(isa.Halt()).MustBuild()
		return &kernels.Instance{Prog: p}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "custom-id" || res.Size != 8 {
		t.Errorf("result labeled %q n=%d, want custom-id n=8", res.Kernel, res.Size)
	}
}

func TestMustRunPanicsOnCheckFailure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRun must panic on validation failure")
		}
	}()
	MustRun(badKernel(), kernels.SVE, 16, nil)
}

// TestErrorsNameJobOnce: every failed job is named exactly once, as
// "name/variant n=size: ..." with the resolved size, whichever layer the
// failure comes from.
func TestErrorsNameJobOnce(t *testing.T) {
	failBuild := &kernels.Kernel{
		ID: "ZB", Name: "fails-build", DefaultSize: 24,
		Build: func(h *mem.Hierarchy, v kernels.Variant, size int) *kernels.Instance {
			return &kernels.Instance{Err: errors.New("synthetic build failure")}
		},
	}
	bounded := DefaultOptions(kernels.UVE)
	bounded.MaxCycles = 500
	cases := []struct {
		name  string
		run   func() error
		label string
		cause string
	}{
		{"build failure", func() error {
			_, err := Run(failBuild, kernels.SVE, 0, nil)
			return err
		}, "fails-build/SVE n=24", "synthetic build failure"},
		{"watchdog trip", func() error {
			_, err := Run(kernels.ByID("C"), kernels.UVE, 1<<14, &bounded)
			return err
		}, "SAXPY/UVE n=16384", "watchdog"},
		{"output mismatch", func() error {
			_, err := Run(badKernel(), kernels.SVE, 0, nil)
			return err
		}, "always-wrong/SVE n=16", "output mismatch: synthetic mismatch"},
		{"custom build", func() error {
			_, err := RunBuilt("custom-id", kernels.NEON, 8, nil, func(h *mem.Hierarchy) *kernels.Instance {
				return &kernels.Instance{Err: errors.New("synthetic custom failure")}
			})
			return err
		}, "custom-id/NEON n=8", "synthetic custom failure"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: run succeeded", c.name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, c.label+": ") || !strings.Contains(msg, c.cause) {
			t.Errorf("%s: error %q, want %q: ...%s...", c.name, msg, c.label, c.cause)
		}
		variant := c.label[strings.Index(c.label, "/"):strings.Index(c.label, " ")]
		if n := strings.Count(msg, variant); n != 1 {
			t.Errorf("%s: error %q names the job %d times, want once", c.name, msg, n)
		}
	}
}

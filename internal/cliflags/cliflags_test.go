package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestVariant(t *testing.T) {
	for in, want := range map[string]kernels.Variant{
		"UVE": kernels.UVE, "uve": kernels.UVE,
		"SVE": kernels.SVE, "sve": kernels.SVE,
		"NEON": kernels.NEON, "neon": kernels.NEON,
	} {
		v, err := Variant(in)
		if err != nil || v != want {
			t.Errorf("Variant(%q) = %v, %v", in, v, err)
		}
	}
	if _, err := Variant("AVX"); err == nil {
		t.Error("Variant accepted AVX")
	}
	vs, err := Variants("all")
	if err != nil || len(vs) != 3 {
		t.Errorf("Variants(all) = %v, %v", vs, err)
	}
}

func TestTraceValidate(t *testing.T) {
	fs := newFS()
	tr := AddTrace(fs)
	if err := fs.Parse([]string{"-trace", "x.json", "-trace-format", "perfetto"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "perfetto") {
		t.Errorf("bad format not rejected: %v", err)
	}

	fs = newFS()
	tr = AddTrace(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if c := tr.Collector(16, false); c != nil {
		t.Error("collector built with no trace file and no attribution request")
	}
	if c := tr.Collector(16, true); c == nil {
		t.Error("no collector despite attribution request")
	}
	tr.File = "x.json"
	if c := tr.Collector(16, false); c == nil {
		t.Error("no collector despite trace file")
	}
}

func TestFaultsFlag(t *testing.T) {
	fs := newFS()
	f := AddFaults(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p, err := f.Plan(); err != nil || p != nil {
		t.Errorf("absent -faults: plan %v, err %v", p, err)
	}

	fs = newFS()
	f = AddFaults(fs)
	if err := fs.Parse([]string{"-faults", "seed=9,nack=100", "-watchdog", "777"}); err != nil {
		t.Fatal(err)
	}
	p, err := f.Plan()
	if err != nil || p == nil || p.Seed != 9 || p.NackPerMille != 100 {
		t.Errorf("plan = %+v, err %v", p, err)
	}
	if f.Watchdog != 777 {
		t.Errorf("watchdog = %d", f.Watchdog)
	}

	// Empty spec is the default campaign, not an error.
	fs = newFS()
	f = AddFaults(fs)
	if err := fs.Parse([]string{"-faults", ""}); err != nil {
		t.Fatal(err)
	}
	if p, err := f.Plan(); err != nil || p == nil || !p.Enabled() {
		t.Errorf("empty spec: plan %+v, err %v", p, err)
	}

	// A bad spec fails at parse time.
	fs = newFS()
	AddFaults(fs)
	if err := fs.Parse([]string{"-faults", "bogus=1"}); err == nil {
		t.Error("bad spec accepted at parse time")
	}
}

func TestFidelity(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		timing  []string // timing flags the tool saw set
		wantFid sim.Fidelity
		wantErr string // substring of the expected error, "" = success
	}{
		{name: "default-cycle", args: nil, wantFid: sim.Cycle},
		{name: "explicit-cycle", args: []string{"-fidelity", "cycle"}, wantFid: sim.Cycle},
		{name: "functional", args: []string{"-fidelity", "functional"}, wantFid: sim.Functional},
		{name: "unknown-tier", args: []string{"-fidelity", "approximate"}, wantErr: "unknown fidelity"},
		{name: "functional-with-trace", args: []string{"-fidelity", "functional"},
			timing: []string{"-trace"}, wantErr: "-fidelity functional cannot be combined with -trace"},
		{name: "functional-with-stalls", args: []string{"-fidelity", "functional"},
			timing: []string{"-stalls"}, wantErr: "cannot be combined with -stalls"},
		{name: "functional-with-exp", args: []string{"-fidelity", "functional"},
			timing: []string{"-exp"}, wantErr: "-fidelity functional cannot be combined with -exp"},
		{name: "functional-with-both", args: []string{"-fidelity", "functional"},
			timing: []string{"-trace", "-stalls"}, wantErr: "-trace, -stalls"},
		{name: "cycle-with-trace-ok", args: []string{"-fidelity", "cycle"}, timing: []string{"-trace"}},
		{name: "default-with-stalls-ok", args: nil, timing: []string{"-stalls"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			f := AddFidelity(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("flag parse: %v", err)
			}
			err := f.RejectTimingFlags(tc.timing...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			fid, err := f.Parse()
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if fid != tc.wantFid {
				t.Fatalf("fidelity = %v, want %v", fid, tc.wantFid)
			}
		})
	}
}

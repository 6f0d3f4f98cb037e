// Package cliflags holds the flag definitions and parsing helpers shared
// by the repo's command-line tools (uvesim, uvebench, uvelint, uvetrace).
// Each tool used to re-declare its own copies of the common flags — worker
// counts, JSON output, variant names, trace destinations and, with this
// package, fault-injection campaigns — with drifting help strings and
// validation; these helpers are the single source of truth.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Workers registers -j: the simulation worker pool size.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("j", 0, "simulation worker pool size (0 = all cores, 1 = sequential)")
}

// JSON registers -json: machine-readable output instead of text tables.
func JSON(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit machine-readable JSON instead of text")
}

// SanitizeFlag is the -sanitize flag value: a sanitizer mode. The bare
// boolean spellings (-sanitize, -sanitize=false) keep working and map to
// on/off, so existing invocations are unchanged.
type SanitizeFlag struct {
	Mode sim.SanitizeMode
}

func (s *SanitizeFlag) String() string {
	if s == nil {
		return "off"
	}
	return s.Mode.String()
}

// Set parses off|on|auto (plus true/false for boolean compatibility).
func (s *SanitizeFlag) Set(v string) error {
	m, err := sim.ParseSanitizeMode(v)
	if err != nil {
		return err
	}
	s.Mode = m
	return nil
}

// IsBoolFlag lets bare -sanitize mean -sanitize=on.
func (s *SanitizeFlag) IsBoolFlag() bool { return true }

// Sanitize registers -sanitize: the runtime stream sanitizer mode.
func Sanitize(fs *flag.FlagSet) *SanitizeFlag {
	f := &SanitizeFlag{}
	fs.Var(f, "sanitize",
		"stream sanitizer mode: off, on (shadow-track every byte live streams touch; UVE only, slow) or auto (elide tracking when the safety certificate proves all pairs disjoint); spell modes as -sanitize=auto — bare -sanitize means on")
	return f
}

// Variant parses a machine variant name, case-insensitively.
func Variant(s string) (kernels.Variant, error) {
	var v kernels.Variant
	switch s {
	case "uve":
		s = "UVE"
	case "sve":
		s = "SVE"
	case "neon":
		s = "NEON"
	}
	if err := v.UnmarshalText([]byte(s)); err != nil {
		return v, fmt.Errorf("unknown variant %q (UVE|SVE|NEON)", s)
	}
	return v, nil
}

// Variants parses a variant name or "all".
func Variants(s string) ([]kernels.Variant, error) {
	if s == "all" {
		return []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON}, nil
	}
	v, err := Variant(s)
	if err != nil {
		return nil, err
	}
	return []kernels.Variant{v}, nil
}

// Fidelity bundles the -fidelity flag: which execution tier a run uses.
type Fidelity struct {
	Name string
}

// AddFidelity registers -fidelity on fs.
func AddFidelity(fs *flag.FlagSet) *Fidelity {
	f := &Fidelity{}
	fs.StringVar(&f.Name, "fidelity", "cycle",
		"execution tier: cycle (detailed machine) or functional (program-order interpretation, no timing)")
	return f
}

// Parse resolves the tier, rejecting unknown spellings as a hard error.
func (f *Fidelity) Parse() (sim.Fidelity, error) {
	return sim.ParseFidelity(f.Name)
}

// RejectTimingFlags hard-errors when -fidelity functional is combined with
// flags that only mean something on the cycle tier (mirroring the unknown
// -trace-format handling: a usage error, not a silent no-op). Callers pass
// the names of the timing flags the user actually set.
func (f *Fidelity) RejectTimingFlags(active ...string) error {
	fid, err := f.Parse()
	if err != nil {
		return err
	}
	if fid == sim.Functional && len(active) > 0 {
		return fmt.Errorf("-fidelity functional cannot be combined with %s: functional runs have no cycles to trace, attribute or tabulate",
			strings.Join(active, ", "))
	}
	return nil
}

// Trace bundles the -trace flag family.
type Trace struct {
	File     string
	Interval int64
	Format   string
}

// AddTrace registers -trace, -trace-interval and -trace-format on fs.
func AddTrace(fs *flag.FlagSet) *Trace {
	t := &Trace{}
	fs.StringVar(&t.File, "trace", "", "write a cycle trace to this file")
	fs.Int64Var(&t.Interval, "trace-interval", 1000, "stall-attribution interval in cycles")
	fs.StringVar(&t.Format, "trace-format", "chrome", "trace file format: chrome (trace_event JSON) or text")
	return t
}

// Validate rejects an unknown -trace-format as a hard error (historically
// uvesim silently fell through to one of the formats).
func (t *Trace) Validate() error {
	if t.Format != "chrome" && t.Format != "text" {
		return fmt.Errorf("unknown -trace-format %q (chrome|text)", t.Format)
	}
	if t.Interval <= 0 {
		return fmt.Errorf("-trace-interval must be positive, got %d", t.Interval)
	}
	return nil
}

// Collector builds the run's trace collector: ringSize event slots when a
// trace file was requested, attribution-only otherwise. Returns nil when
// neither the file nor wantAttribution asks for one.
func (t *Trace) Collector(ringSize int, wantAttribution bool) *trace.Collector {
	if t.File == "" && !wantAttribution {
		return nil
	}
	ring := 0
	if t.File != "" {
		ring = ringSize
	}
	return trace.NewCollector(ring, t.Interval)
}

// Faults bundles the -faults / -watchdog flag family.
type Faults struct {
	Spec     string
	set      bool
	Watchdog int64
}

// AddFaults registers -faults and -watchdog on fs. -faults takes a
// comma-separated key=value campaign spec (seed, nack, nack-retries,
// nack-backoff, pf, max-pf, dram, dram-cycles, suspend, suspend-cycles);
// the empty value selects the default plan with seed 1.
func AddFaults(fs *flag.FlagSet) *Faults {
	f := &Faults{}
	fs.Var(faultSpec{f}, "faults",
		"run under seeded deterministic fault injection; spec: key=value,... (e.g. seed=7,nack=100,pf=50)")
	fs.Int64Var(&f.Watchdog, "watchdog", 0,
		"abort with a diagnostic after this many cycles without a commit (0 = default bound)")
	return f
}

// faultSpec makes -faults distinguishable between "absent" and "empty"
// (an empty value is a valid spec: the default campaign).
type faultSpec struct{ f *Faults }

func (s faultSpec) String() string { return "" }
func (s faultSpec) Set(v string) error {
	s.f.Spec = v
	s.f.set = true
	// Parse eagerly so a bad spec fails at flag-parse time with the
	// offending key in the message.
	_, err := fault.ParsePlan(v)
	return err
}

// Plan returns the campaign plan, or nil when -faults was not given.
func (f *Faults) Plan() (*fault.Plan, error) {
	if !f.set {
		return nil, nil
	}
	p, err := fault.ParsePlan(f.Spec)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

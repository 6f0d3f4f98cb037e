package bench

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wire"
)

// jobConfigFP is the one projection of sim.Options that names a job's
// machine configuration: every field that changes what a simulation
// computes or measures, with the in-process trace recorder reduced to
// presence — a pointer is meaningless across processes, while "was this
// run traced" still separates result payloads that carry stall summaries
// from ones that do not. Its hash (configHash) is both the config half of
// FingerprintJob and the config part of the runner's memo key, so the two
// can never disagree on which options matter.
type jobConfigFP struct {
	Variant   string // resolved variant spelling (defensive: also implied by the program bytes)
	Size      int    // resolved problem size (likewise)
	Core      cpu.Config
	Hier      mem.HierarchyConfig
	Eng       engine.Config // ForceLevel hashes as nil-flag + pointee
	SkipCheck bool
	Sanitize  int
	HashMem   bool
	Watchdog  int64
	MaxCycles int64
	HasFaults bool
	Faults    fault.Plan
	Traced    bool
	Fidelity  int
}

// resolve returns the options and problem size the job runs with: nil
// Opts are the variant's defaults and Size 0 is the kernel's DefaultSize,
// as in sim.Run.
func (j *Job) resolve() (sim.Options, int) {
	var o sim.Options
	if j.Opts != nil {
		o = *j.Opts
	} else {
		o = sim.DefaultOptions(j.Variant)
	}
	size := j.Size
	if size == 0 && j.Kernel != nil {
		size = j.Kernel.DefaultSize
	}
	return o, size
}

// configHash canonically hashes the job's configuration (jobConfigFP) for
// the resolved options and size.
func configHash(v kernels.Variant, size int, o *sim.Options) (wire.Hash, error) {
	fp := jobConfigFP{
		Variant: v.String(), Size: size,
		Core: o.Core, Hier: o.Hier, Eng: o.Eng,
		SkipCheck: o.SkipCheck, Sanitize: int(o.Sanitize), HashMem: o.HashMem,
		Watchdog: o.Watchdog, MaxCycles: o.MaxCycles,
		Traced: o.Trace != nil, Fidelity: int(o.Fidelity),
	}
	if o.Faults != nil {
		fp.HasFaults = true
		fp.Faults = *o.Faults
	}
	return wire.HashConfig("bench.job", fp)
}

// FingerprintJob returns the job's content-addressed identity: the SHA-256
// digest of the built program's canonical wire encoding (instructions,
// argument registers, buffer extents) concatenated with the canonical hash
// of the machine/sim configuration. The kernel's *name* is not an input —
// two jobs that build byte-identical programs under equal configurations
// fingerprint equal, which is exactly the key the persistent result store
// wants: results survive kernel renames and deduplicate aliases.
//
// Building the program is required to hash it; the build is hermetic
// (fresh hierarchy) and discarded, so FingerprintJob never perturbs the
// runner's memo table. A size of 0 resolves to the kernel's DefaultSize,
// matching what execution would run.
func FingerprintJob(j Job) (wire.Hash, error) {
	o, size := j.resolve()
	h := mem.NewHierarchy(o.Hier)
	var inst *kernels.Instance
	if j.Build != nil {
		inst = j.Build(h)
	} else if j.Kernel != nil {
		inst = j.Kernel.Build(h, j.Variant, size)
	} else {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: job has neither Kernel nor Build")
	}
	if inst.Err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, inst.Err)
	}
	unitBytes, err := wire.EncodeUnit(kernels.UnitOf(inst, h.Mem.Extents()))
	if err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, err)
	}
	cfgHash, err := configHash(j.Variant, size, &o)
	if err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, err)
	}

	d := sha256.New()
	d.Write(unitBytes)
	d.Write(cfgHash[:])
	var out wire.Hash
	d.Sum(out[:0])
	return out, nil
}

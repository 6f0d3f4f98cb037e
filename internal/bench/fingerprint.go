package bench

import (
	"crypto/sha256"
	"fmt"
	"sync"

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
	k, err := fingerprintKey(&j)
	if err != nil {
		return wire.Hash{}, err
	}
	return fingerprint(&j, k)
}

// fingerprintKey is the job's cell key (keyOf) with FingerprintJob's
// errors: it computes the configuration hash the fingerprint then reuses.
func fingerprintKey(j *Job) (cellKey, error) {
	if j.Kernel == nil && j.Build == nil {
		return cellKey{}, fmt.Errorf("bench: fingerprint: job has neither Kernel nor Build")
	}
	k, err := keyOf(j)
	if err != nil {
		return cellKey{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, k.size, err)
	}
	return k, nil
}

// fingerprint builds the job's program and hashes it with k.cfg, the
// job's configuration hash.
func fingerprint(j *Job, k cellKey) (wire.Hash, error) {
	o, size := j.resolve()
	h := mem.NewHierarchy(o.Hier)
	var inst *kernels.Instance
	if j.Build != nil {
		inst = j.Build(h)
	} else {
		inst = j.Kernel.Build(h, j.Variant, size)
	}
	if inst.Err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, inst.Err)
	}
	unitBytes, err := wire.EncodeUnit(kernels.UnitOf(inst, h.Mem.Extents()))
	if err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, err)
	}

	d := sha256.New()
	d.Write(unitBytes)
	d.Write(k.cfg[:])
	var out wire.Hash
	d.Sum(out[:0])
	return out, nil
}

// fingerprintMemoCap bounds a FingerprintMemo. The paper's matrix at one
// size is 19 kernels × 3 variants × 2 fidelities × traced or not (228
// cells), so a daemon serving many sizes and configurations still answers
// its working set from the memo; past the cap the oldest cell is evicted.
const fingerprintMemoCap = 4096

// FingerprintStats counts how a FingerprintMemo answered.
type FingerprintStats struct {
	MemoHits int `json:"memo_hits"` // answered from the memo, nothing built
	Built    int `json:"built"`     // built and hashed (failed builds included)
}

// FingerprintMemo caches FingerprintJob under the runner's memo key
// (kernel id, variant, resolved size, configuration hash). The program a
// job builds is a pure function of that key — the hierarchy it is laid
// out in is part of the configuration — so a repeat cell's fingerprint is
// a map lookup after one configuration hash, with no build. It is an
// identity cache, not a dedup layer: it decides nothing about whether a
// job runs, only how cheaply its name is computed. Only successful
// fingerprints are kept; a failing build is retried (and fails alike)
// every time. It holds at most fingerprintMemoCap cells, evicting the
// oldest first, and grows only as cells arrive. The zero value is ready
// to use and safe for concurrent callers.
type FingerprintMemo struct {
	mu    sync.Mutex
	fps   map[cellKey]wire.Hash
	order []cellKey // insertion order; a ring once full
	next  int       // the oldest entry once the ring is full
	stats FingerprintStats
}

// Fingerprint returns FingerprintJob(j), from the memo when the job's cell
// has been fingerprinted before.
func (m *FingerprintMemo) Fingerprint(j Job) (wire.Hash, error) {
	k, err := fingerprintKey(&j)
	if err != nil {
		return wire.Hash{}, err
	}
	m.mu.Lock()
	fp, ok := m.fps[k]
	if ok {
		m.stats.MemoHits++
	} else {
		m.stats.Built++
	}
	m.mu.Unlock()
	if ok {
		return fp, nil
	}
	if fp, err = fingerprint(&j, k); err != nil {
		return wire.Hash{}, err
	}
	m.mu.Lock()
	m.put(k, fp)
	m.mu.Unlock()
	return fp, nil
}

// put records a cell, evicting the oldest when the memo is full. Callers
// hold mu.
func (m *FingerprintMemo) put(k cellKey, fp wire.Hash) {
	if _, ok := m.fps[k]; ok {
		return // a concurrent miss of the same cell stored it first
	}
	if m.fps == nil {
		m.fps = make(map[cellKey]wire.Hash)
	}
	if len(m.order) < fingerprintMemoCap {
		m.order = append(m.order, k)
	} else {
		delete(m.fps, m.order[m.next])
		m.order[m.next] = k
		m.next = (m.next + 1) % fingerprintMemoCap
	}
	m.fps[k] = fp
}

// Stats returns a snapshot of the memo's counters.
func (m *FingerprintMemo) Stats() FingerprintStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

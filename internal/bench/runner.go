package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Job identifies one simulation: a kernel (or a custom instance factory),
// the machine variant, the problem size and the machine configuration.
// Every simulation is hermetic — it builds its own memory hierarchy, core
// and engine — so jobs can run on any worker in any order.
type Job struct {
	Kernel  *kernels.Kernel
	Variant kernels.Variant
	Size    int
	Opts    *sim.Options // nil = sim.DefaultOptions(Variant)

	// Build, when non-nil, replaces the Kernel's standard build with a
	// custom instance factory (e.g. the Fig 8.E unrolled GEMMs). Key must
	// then uniquely name the instance for memoization and labeling.
	Key   string
	Build func(h *mem.Hierarchy) *kernels.Instance
}

func (j *Job) id() string {
	if j.Build != nil {
		return j.Key
	}
	return j.Kernel.ID
}

// cellKey is the runner's memo key: one kernel × variant × size ×
// configuration cell. cfg is configHash, the configuration identity
// FingerprintJob also hashes, so every result-shaping sim.Options field
// separates keys by construction.
type cellKey struct {
	kernel  string
	variant kernels.Variant
	size    int
	cfg     wire.Hash
}

func keyOf(j *Job) (cellKey, error) {
	o, size := j.resolve()
	cfg, err := configHash(j.Variant, size, &o)
	return cellKey{kernel: j.id(), variant: j.Variant, size: size, cfg: cfg}, err
}

// memoEntry is one memoized simulation. done is closed exactly once, after
// res/err are written by the single worker that executed the job.
type memoEntry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// RunnerStats reports the memoization effectiveness of a Runner.
type RunnerStats struct {
	Submitted int `json:"submitted"` // jobs submitted across all RunAll calls
	Simulated int `json:"simulated"` // unique simulations actually executed
	MemoHits  int `json:"memo_hits"` // jobs satisfied from the memo table
}

// Runner executes simulation jobs on a fixed-size worker pool and
// memoizes results by (kernel, variant, resolved size, config hash), so
// the default-configuration baseline shared by every sensitivity sweep is
// simulated exactly once per process-wide Runner. Traced jobs bypass the
// memo: each carries its own recorder, which only its own run may feed.
// Results are returned in submission order regardless of completion
// order, making parallel output byte-identical to sequential output.
type Runner struct {
	workers int

	mu    sync.Mutex
	memo  map[cellKey]*memoEntry
	stats RunnerStats
}

// NewRunner builds a runner with the given worker count; workers <= 0
// means GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: make(map[cellKey]*memoEntry)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the memoization counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ExecJob runs one simulation under ctx (a done context aborts it with a
// *sim.CanceledError), converting panics (kernel build failures, modeling
// bugs) into errors so a dying worker can never wedge its pool. It is the
// runner's single-job path without the memo. Errors name the job once, as
// sim does: "name/variant n=size: ...".
func ExecJob(ctx context.Context, j Job) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			name, size := j.Key, j.Size
			if j.Build == nil {
				name = j.Kernel.Name
				_, size = j.resolve()
			}
			err = fmt.Errorf("%s/%s n=%d: simulation panic: %v", name, j.Variant, size, p)
		}
	}()
	if j.Build != nil {
		return sim.RunBuiltContext(ctx, j.Key, j.Variant, j.Size, j.Opts, j.Build)
	}
	return sim.RunContext(ctx, j.Kernel, j.Variant, j.Size, j.Opts)
}

// RunAll executes the jobs concurrently (bounded by the worker pool),
// deduplicating against the memo table, and returns one result per job in
// submission order. Memoized results are shared — callers must treat them
// as read-only. The returned error is the first job error in submission
// order; results for the other jobs are still returned.
func (r *Runner) RunAll(jobs []Job) ([]*sim.Result, error) {
	results, errs := r.runEach(jobs)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// runEach is RunAll reporting every job's own error, in submission order.
func (r *Runner) runEach(jobs []Job) ([]*sim.Result, []error) {
	entries := make([]*memoEntry, len(jobs))
	type work struct {
		entry *memoEntry
		job   Job
	}
	var pending []work

	r.mu.Lock()
	r.stats.Submitted += len(jobs)
	for i, j := range jobs {
		if j.Opts != nil {
			// Snapshot at submit: the memo key and the eventual execution
			// must see the same configuration even if the caller mutates
			// its Options (or a pointee like Eng.ForceLevel or Faults)
			// after RunAll returns the shared memo entry.
			c := j.Opts.Clone()
			j.Opts = &c
		}
		e := &memoEntry{done: make(chan struct{})}
		entries[i] = e
		// A traced job feeds its own recorder, so it never shares a run.
		if j.Opts == nil || j.Opts.Trace == nil {
			k, err := keyOf(&j)
			if err != nil {
				e.err = err
				close(e.done)
				continue
			}
			if hit := r.memo[k]; hit != nil {
				entries[i] = hit
				r.stats.MemoHits++
				continue
			}
			r.memo[k] = e
		}
		pending = append(pending, work{e, j})
		r.stats.Simulated++
	}
	r.mu.Unlock()

	if len(pending) > 0 {
		n := r.workers
		if n > len(pending) {
			n = len(pending)
		}
		ch := make(chan work)
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for wk := range ch {
					wk.entry.res, wk.entry.err = ExecJob(context.Background(), wk.job)
					close(wk.entry.done)
				}
			}()
		}
		for _, wk := range pending {
			ch <- wk
		}
		close(ch)
		wg.Wait()
	}

	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, e := range entries {
		// Entries owned by a concurrent RunAll may still be in flight.
		<-e.done
		results[i], errs[i] = e.res, e.err
	}
	return results, errs
}

// Run executes a single job through the pool and memo table.
func (r *Runner) Run(j Job) (*sim.Result, error) {
	rs, err := r.RunAll([]Job{j})
	return rs[0], err
}

// mustAll panics on a job error, matching the historical sim.MustRun
// behavior of the figure drivers.
func mustAll(rs []*sim.Result, err error) []*sim.Result {
	if err != nil {
		panic(err)
	}
	return rs
}

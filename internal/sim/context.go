package sim

import (
	"context"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/mem"
)

// CanceledError is the typed error a run fails with when its
// context.Context is canceled or its deadline expires. It wraps the
// context's own error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both see through it; Cycle
// records how far the detailed machine had simulated when the
// cancellation was observed (0 on the functional tier, whose progress is
// measured in instructions — see Insts).
type CanceledError struct {
	// Cycle is the detailed tier's cycle count at the cancellation poll
	// that observed the context error.
	Cycle int64
	// Insts is the functional tier's interpreted-instruction count at the
	// cancellation poll (0 on the cycle tier).
	Insts int64
	// Err is ctx.Err(): context.Canceled or context.DeadlineExceeded.
	Err error
}

func (e *CanceledError) Error() string {
	switch {
	case e.Cycle > 0:
		return fmt.Sprintf("sim: run canceled at cycle %d: %v", e.Cycle, e.Err)
	case e.Insts > 0:
		return fmt.Sprintf("sim: run canceled after %d instructions: %v", e.Insts, e.Err)
	}
	return fmt.Sprintf("sim: run canceled: %v", e.Err)
}

// Unwrap exposes the context error for errors.Is/errors.As.
func (e *CanceledError) Unwrap() error { return e.Err }

// RunContext is Run with cancellation: the context is polled at
// cycle-batch granularity on the detailed tier (instruction-batch on the
// functional tier) and a done context aborts the run with a
// *CanceledError wrapping ctx.Err(). A context that is already done
// aborts before the kernel is built.
func RunContext(ctx context.Context, k *kernels.Kernel, v kernels.Variant, size int, opts *Options) (*Result, error) {
	if k == nil {
		return nil, fmt.Errorf("sim: nil kernel")
	}
	if size < 0 {
		return nil, fmt.Errorf("sim: %s/%s: invalid size %d", k.Name, v, size)
	}
	if size == 0 {
		size = k.DefaultSize
	}
	return runBuilt(ctx, k.Name, k.ID, v, size, opts, func(h *mem.Hierarchy) *kernels.Instance {
		return k.Build(h, v, size)
	})
}

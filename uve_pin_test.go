package uve

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// pinSizes are the kernels package's correctness-test sizes.
var pinSizes = map[string]int{
	"A": 1000, "B": 700, "C": 777, "D": 32, "E": 16, "F": 48, "G": 32,
	"H": 40, "I": 500, "J": 24, "K": 8, "L": 64, "M": 48, "N": 16,
	"O": 24, "P": 24, "Q": 24, "R": 20, "S": 20,
}

// variantConfig is the public Config matching sim.DefaultOptions(v).
func variantConfig(v kernels.Variant) Config {
	switch v {
	case kernels.UVE:
		return DefaultConfig()
	case kernels.NEON:
		return NEONConfig()
	}
	return SVEConfig()
}

// TestMachineMatchesSim pins the public run path to the internal one:
// every kernel × variant, on both tiers, run through Machine.Run on a
// kernel built into the machine's own hierarchy, must report the same
// cycles, statistics and final memory image as sim.RunBuilt.
func TestMachineMatchesSim(t *testing.T) {
	for _, f := range []Fidelity{Cycle, Functional} {
		for _, k := range kernels.All {
			for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
				size := pinSizes[k.ID]
				if size == 0 {
					t.Fatalf("no pin size for kernel %s", k.ID)
				}
				opts := sim.DefaultOptions(v)
				opts.Fidelity = f
				opts.HashMem = true
				want, err := sim.RunBuilt(k.ID, v, size, &opts, func(h *mem.Hierarchy) *kernels.Instance {
					return k.Build(h, v, size)
				})
				if err != nil {
					t.Fatalf("%s/%s %s: sim: %v", k.ID, v, f, err)
				}

				m := NewMachine(variantConfig(v), WithFidelity(f))
				inst := k.Build(m.hier, v, size)
				if inst.Err != nil {
					t.Fatalf("%s/%s: build: %v", k.ID, v, inst.Err)
				}
				var args []Arg
				for r, val := range inst.IntArgs {
					args = append(args, IntArg(r, val))
				}
				for r, a := range inst.FPArgs {
					args = append(args, FloatArg(r, a.W, a.V))
				}
				got, err := m.Run(inst.Prog, args...)
				if err != nil {
					t.Fatalf("%s/%s %s: Machine.Run: %v", k.ID, v, f, err)
				}
				if err := inst.Check(); err != nil {
					t.Fatalf("%s/%s %s: Machine.Run output: %v", k.ID, v, f, err)
				}
				if got.Cycles != want.Cycles || got.Committed != want.Committed {
					t.Errorf("%s/%s %s: Machine %d cycles %d committed, sim %d cycles %d committed",
						k.ID, v, f, got.Cycles, got.Committed, want.Cycles, want.Committed)
				}
				if !reflect.DeepEqual(got.Core, want.Core) || got.Engine != want.Eng ||
					got.DRAM != want.DRAM || got.L1 != want.L1 || got.L2 != want.L2 {
					t.Errorf("%s/%s %s: statistics diverge between Machine and sim", k.ID, v, f)
				}
				if h := m.hier.Mem.HashExtents(); h != want.MemHash {
					t.Errorf("%s/%s %s: memory image %#x via Machine, %#x via sim", k.ID, v, f, h, want.MemHash)
				}
			}
		}
	}
}

package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/program"
)

// TestStaleLoadCompletionDropped squashes a load while its line is still in
// flight, lets rename reuse the load's pool entry for a younger instruction
// (the same load, refetched), and then delivers the squashed load's line
// completion. The completion names the old (id, seq) and must leave the new
// occupant alone: its memory state and result are unchanged, and the run
// still produces the right value.
func TestStaleLoadCompletionDropped(t *testing.T) {
	p := program.NewBuilder("stale").
		I(isa.Load(arch.W8, isa.X(2), isa.X(1), 0)).
		I(isa.AddI(isa.X(3), isa.X(2), 1)).
		I(isa.Halt()).
		MustBuild()
	m := newMachine(t, p, false)
	addr := m.hier.Mem.Alloc(64, 64)
	m.hier.Mem.Write(addr, arch.W8, 1234)
	c := m.core
	c.SetIntReg(1, addr)

	// Step until the load has its line in flight (a DRAM round trip).
	var ld *robEntry
	idx := -1
	for i := 0; i < 100 && ld == nil; i++ {
		c.Step()
		for j, e := range c.rob {
			if e.isLoad && e.linesPend > 0 {
				ld, idx = e, j
			}
		}
	}
	if ld == nil {
		t.Fatal("load never had a line in flight")
	}
	staleTag, staleSeq, id, pc := loadTag(ld), ld.seq, ld.id, ld.pc

	// Squash it (and everything younger) and refetch from the load.
	c.squashAfter(idx - 1)
	c.redirect(pc, 0)
	reused := &c.robPool[id]
	for i := 0; i < 100 && !(reused.seq != staleSeq && reused.isLoad && reused.linesPend > 0); i++ {
		c.Step()
	}
	if reused.seq == staleSeq || !reused.isLoad || reused.linesPend == 0 {
		t.Fatalf("pool entry %d was not reused by an in-flight load (seq %d, stale %d)", id, reused.seq, staleSeq)
	}

	before := reused.robState
	c.Complete(c.cycle, staleTag)
	if reused.robState != before {
		t.Fatalf("stale completion changed the new occupant: memDone %v→%v, linesPend %d→%d, resVal %d→%d",
			before.memDone, reused.memDone, before.linesPend, reused.linesPend, before.resVal, reused.resVal)
	}

	// The real (late) completion of the squashed load is dropped the same
	// way when the hierarchy delivers it.
	c.Run()
	if got := c.IntReg(3); got != 1235 {
		t.Fatalf("x3 = %d, want 1235", got)
	}
}

package mem

import (
	"testing"

	"repro/internal/arch"
)

// The NextEventAt contract: with no new Access calls, every Tick strictly
// before the reported cycle is a no-op — no Done callback fires and no
// statistic changes anywhere in the hierarchy. The event scheduler in the
// core relies on exactly this to elide dead cycles, so the property is
// tested here directly against the memory stack: drive a mixed workload
// (demand reads and writes, L2-bypass stream traffic, MSHR-merging repeats),
// and whenever the hierarchy reports its next event more than one cycle out,
// tick through the dead window and require bit-identical state at every
// intermediate cycle.

type hierSnap struct {
	l1d, l1i, l2 CacheStats
	dram         DRAMStats
	p1d, p1i, p2 int
	dpend        int
}

func snapHier(h *Hierarchy) hierSnap {
	return hierSnap{
		l1d: h.L1D.Stats, l1i: h.L1I.Stats, l2: h.L2.Stats,
		dram: h.DRAM.Stats,
		p1d:  h.L1D.PendingOps(), p1i: h.L1I.PendingOps(), p2: h.L2.PendingOps(),
		dpend: h.DRAM.Pending(),
	}
}

func TestNextEventAtDeadWindowsAreNoOps(t *testing.T) {
	for _, pf := range []bool{false, true} {
		name := "prefetchers-off"
		if pf {
			name = "prefetchers-on"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			cfg.Prefetchers = pf
			h := NewHierarchy(cfg)

			// A workload with distinct-line misses (full DRAM round trips),
			// same-line repeats (MSHR merges), writes (dirty allocation +
			// eventual writeback pressure), and L2-bypass stream requests.
			const base = 0x40_0000
			type job struct {
				at  int64
				req Req
			}
			done := 0
			var jobs []job
			mk := func(at int64, line uint64, write bool, lvl arch.CacheLevel) {
				jobs = append(jobs, job{at, Req{
					Line: line, Write: write, MinLevel: lvl,
					Done: doneFunc(func(int64) { done++ }),
				}})
			}
			for i := 0; i < 24; i++ {
				line := uint64(base + i*4096)
				mk(int64(i*3), line, i%4 == 3, arch.LevelL1)
				if i%5 == 0 {
					mk(int64(i*3+1), line, false, arch.LevelL1) // MSHR merge
				}
				if i%3 == 0 {
					mk(int64(i*3+2), uint64(base+0x10_0000+i*4096), false, arch.LevelL2)
				}
			}
			total := len(jobs)

			now := int64(0)
			issued := 0
			windows := 0
			const limit = 2_000_000
			for now < limit {
				// Issue everything due this cycle (retrying rejects next
				// cycle), then tick — the same order a core Step uses.
				for issued < len(jobs) && jobs[issued].at <= now {
					if !h.Access(now, jobs[issued].req) {
						break
					}
					issued++
				}
				h.Tick(now)
				if issued < len(jobs) {
					now++ // external driver still active; no dead windows yet
					continue
				}
				next := h.NextEventAt(now)
				if next >= NoEvent {
					if !h.Quiesce() {
						t.Fatalf("cycle %d: NextEventAt reports NoEvent with pending ops (l1d=%d l1i=%d l2=%d dram=%d)",
							now, h.L1D.PendingOps(), h.L1I.PendingOps(), h.L2.PendingOps(), h.DRAM.Pending())
					}
					break
				}
				if next <= now+1 {
					now++
					continue
				}
				// Dead window (now, next): every tick must change nothing.
				before := snapHier(h)
				doneBefore := done
				for c := now + 1; c < next; c++ {
					h.Tick(c)
					if done != doneBefore {
						t.Fatalf("Done fired at cycle %d, before reported next event %d", c, next)
					}
					if got := snapHier(h); got != before {
						t.Fatalf("hierarchy state changed at cycle %d, before reported next event %d:\nbefore %+v\n after %+v",
							c, next, before, got)
					}
				}
				windows++
				now = next
			}
			if now >= limit {
				t.Fatalf("workload did not quiesce within %d cycles (done %d/%d)", limit, done, total)
			}
			if done != total {
				t.Fatalf("completed %d of %d requests", done, total)
			}
			if windows == 0 {
				t.Fatal("workload produced no multi-cycle dead windows; property vacuous")
			}
			t.Logf("%s: %d requests, %d dead windows checked, quiesced at cycle %d", name, total, windows, now)
		})
	}
}

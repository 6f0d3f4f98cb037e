package mem

import "repro/internal/arch"

// HierarchyConfig sizes the full memory system (paper Table I).
type HierarchyConfig struct {
	L1   CacheConfig
	L1I  CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
	// Prefetchers enables the baseline's stride (L1) and AMPM (L2)
	// prefetchers; the UVE configuration streams exact patterns instead.
	Prefetchers bool
	StrideDepth int
	TLBEntries  int
}

// DefaultHierarchyConfig returns the Table I memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: CacheConfig{
			Name: "L1-D", Level: arch.LevelL1,
			SizeBytes: 64 << 10, Ways: 4,
			// 4 MSHRs is the gem5 classic-cache default the paper's
			// baseline inherits; it caps the baseline's memory-level
			// parallelism, which is a big part of why exact streams win on
			// bandwidth-bound kernels (Fig 8.D).
			HitLatency: 4, MSHRs: 4, AcceptsPerCycle: 4, PrefetchQueue: 16,
		},
		L1I: CacheConfig{
			Name: "L1-I", Level: arch.LevelL1,
			SizeBytes: 64 << 10, Ways: 4,
			HitLatency: 1, MSHRs: 4, AcceptsPerCycle: 2,
		},
		L2: CacheConfig{
			Name: "L2", Level: arch.LevelL2,
			SizeBytes: 256 << 10, Ways: 8,
			HitLatency: 12, MSHRs: 20, AcceptsPerCycle: 4, PrefetchQueue: 32,
		},
		DRAM:        DefaultDRAMConfig(),
		Prefetchers: true,
		StrideDepth: 16,
		TLBEntries:  48,
	}
}

// Hierarchy wires backing store, TLB, caches and DRAM together. The core's
// LSQ and the streaming engine access it through the L1 port (demand
// traffic) or with MinLevel set to bypass levels (stream traffic).
type Hierarchy struct {
	Mem  *Memory
	TLB  *TLB
	L1D  *Cache
	L1I  *Cache
	L2   *Cache
	DRAM *DRAM
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	m := NewMemory()
	dram := NewDRAM(cfg.DRAM)
	l2 := NewCache(cfg.L2, dram)
	l1 := NewCache(cfg.L1, l2)
	if cfg.L1I.SizeBytes == 0 {
		cfg.L1I = DefaultHierarchyConfig().L1I
	}
	l1i := NewCache(cfg.L1I, l2)
	l2.SetUpper(l1)
	if cfg.Prefetchers {
		l1.SetPrefetcher(NewStridePrefetcher(cfg.StrideDepth))
		l2.SetPrefetcher(NewAMPMPrefetcher())
	}
	entries := cfg.TLBEntries
	if entries == 0 {
		entries = 48
	}
	return &Hierarchy{Mem: m, TLB: NewTLB(m, entries), L1D: l1, L1I: l1i, L2: l2, DRAM: dram}
}

// Access submits a demand request at the L1 (requests with MinLevel above L1
// flow through without allocating, as stream requests do).
func (h *Hierarchy) Access(now int64, r Req) bool { return h.L1D.Access(now, r) }

// FetchInst submits an instruction-fetch line request to the L1-I.
func (h *Hierarchy) FetchInst(now int64, r Req) bool { return h.L1I.Access(now, r) }

// Tick advances all levels one cycle. DRAM ticks first so responses climb
// at most one level per cycle.
func (h *Hierarchy) Tick(now int64) {
	h.DRAM.Tick(now)
	h.L2.Tick(now)
	h.L1D.Tick(now)
	h.L1I.Tick(now)
}

// Quiesce reports whether no timing activity is outstanding anywhere.
func (h *Hierarchy) Quiesce() bool {
	return h.L1D.PendingOps() == 0 && h.L1I.PendingOps() == 0 &&
		h.L2.PendingOps() == 0 && h.DRAM.Pending() == 0
}

package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(64, 8)
	m.Write(a, arch.W8, 0x1122334455667788)
	if got := m.Read(a, arch.W8); got != 0x1122334455667788 {
		t.Fatalf("W8 roundtrip: %#x", got)
	}
	if got := m.Read(a, arch.W4); got != 0x55667788 {
		t.Fatalf("W4 little-endian read: %#x", got)
	}
	if got := m.Read(a, arch.W2); got != 0x7788 {
		t.Fatalf("W2 read: %#x", got)
	}
	if got := m.Read(a, arch.W1); got != 0x88 {
		t.Fatalf("W1 read: %#x", got)
	}
	m.Write(a+4, arch.W2, 0xBEEF)
	if got := m.Read(a+4, arch.W2); got != 0xBEEF {
		t.Fatalf("W2 write: %#x", got)
	}
}

func TestMemoryFloatRoundTrip(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(16, 8)
	m.WriteFloat(a, arch.W8, 3.25)
	if got := m.ReadFloat(a, arch.W8); got != 3.25 {
		t.Fatalf("f64: %v", got)
	}
	m.WriteFloat(a+8, arch.W4, 1.5)
	if got := m.ReadFloat(a+8, arch.W4); got != 1.5 {
		t.Fatalf("f32: %v", got)
	}
}

func TestMemoryAllocAlignmentAndMapping(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(100, 64)
	if a%64 != 0 {
		t.Fatalf("alloc not aligned: %#x", a)
	}
	b := m.Alloc(8, 8)
	if b < a+100 {
		t.Fatalf("allocations overlap: %#x after %#x+100", b, a)
	}
	if !m.Mapped(a) || !m.Mapped(a+99) {
		t.Fatal("allocated range not mapped")
	}
	if m.Mapped(0) {
		t.Fatal("address 0 must be unmapped")
	}
}

func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	base := m.Alloc(1<<16, 8)
	f := func(off uint16, v uint64, wsel uint8) bool {
		w := []arch.ElemWidth{arch.W1, arch.W2, arch.W4, arch.W8}[wsel%4]
		addr := base + uint64(off)
		m.Write(addr, w, v)
		want := v
		if w != arch.W8 {
			want = v & (1<<(8*uint(w)) - 1)
		}
		return m.Read(addr, w) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(arch.PageSize*4, arch.PageSize)
	tlb := NewTLB(m, 2)
	lat, fault := tlb.Translate(a)
	if fault || lat != tlb.WalkPenalty {
		t.Fatalf("first access: lat=%d fault=%v", lat, fault)
	}
	lat, fault = tlb.Translate(a + 8)
	if fault || lat != 0 {
		t.Fatalf("TLB hit expected: lat=%d fault=%v", lat, fault)
	}
	// Fill beyond capacity and verify the first entry was evicted.
	tlb.Translate(a + arch.PageSize)
	tlb.Translate(a + 2*arch.PageSize)
	if lat, _ = tlb.Translate(a); lat == 0 {
		t.Fatal("expected eviction of oldest translation")
	}
	// Unmapped page faults and is not cached.
	_, fault = tlb.Translate(0x10)
	if !fault {
		t.Fatal("unmapped page must fault")
	}
	if tlb.Faults != 1 {
		t.Fatalf("faults=%d want 1", tlb.Faults)
	}
	tlb.Flush()
	if lat, _ = tlb.Translate(a); lat == 0 {
		t.Fatal("flush must empty the TLB")
	}
}

// runUntil ticks p until done returns true, failing after limit cycles.
func runUntil(t *testing.T, p Port, start int64, limit int64, done func() bool) int64 {
	t.Helper()
	for c := start; c < start+limit; c++ {
		p.Tick(c)
		if done() {
			return c
		}
	}
	t.Fatalf("condition not reached within %d cycles", limit)
	return 0
}

func TestDRAMLatencyAndBandwidth(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 1, AccessLatency: 50, LineService: 8, QueueDepth: 8})
	var doneAt []int64
	for i := 0; i < 3; i++ {
		r := Req{Line: uint64(i * 2 * arch.LineSize), Done: doneFunc(func(now int64) { doneAt = append(doneAt, now) })}
		if !d.Access(0, r) {
			t.Fatal("access rejected")
		}
	}
	runUntil(t, d, 1, 200, func() bool { return len(doneAt) == 3 })
	// Serialized on one channel: starts at 1, 9, 17 → done ≈ 51, 59, 67.
	if doneAt[1]-doneAt[0] != 8 || doneAt[2]-doneAt[1] != 8 {
		t.Fatalf("line service spacing wrong: %v", doneAt)
	}
	if d.Stats.Reads != 3 || d.Stats.ReadBytes != 3*arch.LineSize {
		t.Fatalf("stats wrong: %+v", d.Stats)
	}
}

func TestDRAMChannelsInterleave(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 2, AccessLatency: 50, LineService: 8, QueueDepth: 8})
	var doneAt []int64
	for i := 0; i < 2; i++ {
		r := Req{Line: uint64(i * arch.LineSize), Done: doneFunc(func(now int64) { doneAt = append(doneAt, now) })}
		d.Access(0, r)
	}
	runUntil(t, d, 1, 200, func() bool { return len(doneAt) == 2 })
	if doneAt[1] != doneAt[0] {
		t.Fatalf("adjacent lines should ride parallel channels: %v", doneAt)
	}
}

func TestDRAMQueueFull(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 1, AccessLatency: 50, LineService: 8, QueueDepth: 2})
	if !d.Access(0, Req{Line: 0}) || !d.Access(0, Req{Line: 64}) {
		t.Fatal("first two must be accepted")
	}
	if d.Access(0, Req{Line: 128}) {
		t.Fatal("queue overflow accepted")
	}
	if d.Stats.QueueFullStalls != 1 {
		t.Fatalf("stall count %d", d.Stats.QueueFullStalls)
	}
}

func TestDRAMUtilization(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 2, AccessLatency: 10, LineService: 8, QueueDepth: 32})
	n := 0
	for i := 0; i < 16; i++ {
		d.Access(0, Req{Line: uint64(i * arch.LineSize), Done: doneFunc(func(int64) { n++ })})
	}
	end := runUntil(t, d, 1, 500, func() bool { return n == 16 })
	u := d.Utilization(end)
	if u <= 0.5 || u > 1.0 {
		t.Fatalf("utilization %v out of plausible range (16 back-to-back lines)", u)
	}
}

// instantPort completes requests synchronously, for isolated cache tests.
type instantPort struct {
	seen []uint64
}

func (p *instantPort) Access(now int64, r Req) bool {
	p.seen = append(p.seen, r.Line)
	if r.Done != nil {
		r.Done.Complete(now, r.Tag)
	}
	return true
}

func (p *instantPort) Tick(now int64) {}

func testCacheCfg(sizeKB, ways, hitLat int) CacheConfig {
	return CacheConfig{
		Name: "test", Level: arch.LevelL1,
		SizeBytes: sizeKB << 10, Ways: ways,
		HitLatency: hitLat, MSHRs: 4, AcceptsPerCycle: 4,
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	lower := &instantPort{}
	c := NewCache(testCacheCfg(4, 2, 3), lower)
	var missDone, hitDone int64
	c.Tick(0)
	if !c.Access(0, Req{Line: 0x1000, Done: doneFunc(func(n int64) { missDone = n })}) {
		t.Fatal("rejected")
	}
	runUntil(t, c, 1, 50, func() bool { return missDone != 0 })
	if c.Stats.Misses != 1 {
		t.Fatalf("misses=%d", c.Stats.Misses)
	}
	if !c.Contains(0x1000) || c.StateOf(0x1000) != Exclusive {
		t.Fatalf("state %v, want E", c.StateOf(0x1000))
	}
	start := missDone + 1
	c.Tick(start)
	if !c.Access(start, Req{Line: 0x1000, Done: doneFunc(func(n int64) { hitDone = n })}) {
		t.Fatal("hit rejected")
	}
	runUntil(t, c, start+1, 10, func() bool { return hitDone != 0 })
	if hitDone-start != 3 {
		t.Fatalf("hit latency = %d, want 3", hitDone-start)
	}
}

func TestCacheWriteMakesModified(t *testing.T) {
	c := NewCache(testCacheCfg(4, 2, 1), &instantPort{})
	done := false
	c.Tick(0)
	c.Access(0, Req{Line: 0x40, Write: true, Done: doneFunc(func(int64) { done = true })})
	runUntil(t, c, 1, 20, func() bool { return done })
	if c.StateOf(0x40) != Modified {
		t.Fatalf("state %v, want M", c.StateOf(0x40))
	}
}

func TestCacheMSHRMerge(t *testing.T) {
	lower := &instantPort{}
	c := NewCache(testCacheCfg(4, 2, 1), lower)
	count := 0
	c.Tick(0)
	c.Access(0, Req{Line: 0x80, Done: doneFunc(func(int64) { count++ })})
	c.Access(0, Req{Line: 0x80, Done: doneFunc(func(int64) { count++ })})
	runUntil(t, c, 1, 20, func() bool { return count == 2 })
	if len(lower.seen) != 1 {
		t.Fatalf("lower saw %d fills, want 1 (merged)", len(lower.seen))
	}
	if c.Stats.Misses != 1 {
		t.Fatalf("misses=%d, want 1 (secondary merged)", c.Stats.Misses)
	}
}

func TestCacheMSHRFullRejects(t *testing.T) {
	// Lower port that never responds, pinning MSHRs.
	c := NewCache(testCacheCfg(4, 2, 1), &blackholePort{})
	c.Tick(0)
	for i := 0; i < 4; i++ {
		if !c.Access(0, Req{Line: uint64(i) * arch.LineSize}) {
			t.Fatalf("access %d rejected early", i)
		}
	}
	if c.Access(0, Req{Line: 5 * arch.LineSize}) {
		t.Fatal("access beyond MSHR capacity accepted")
	}
}

type blackholePort struct{}

func (blackholePort) Access(int64, Req) bool { return true }
func (blackholePort) Tick(int64)             {}

func TestCacheEvictionWritesBack(t *testing.T) {
	lower := &instantPort{}
	// 2 sets × 1 way × 64B = 128B cache: two same-set lines conflict.
	cfg := CacheConfig{Name: "tiny", Level: arch.LevelL1, SizeBytes: 128, Ways: 1,
		HitLatency: 1, MSHRs: 2, AcceptsPerCycle: 4}
	c := NewCache(cfg, lower)
	done := 0
	c.Tick(0)
	c.Access(0, Req{Line: 0x000, Write: true, Done: doneFunc(func(int64) { done++ })})
	runUntil(t, c, 1, 20, func() bool { return done == 1 })
	// Same set (stride = 128B): evicts the dirty line.
	now := int64(10)
	c.Tick(now)
	c.Access(now, Req{Line: 0x100, Done: doneFunc(func(int64) { done++ })})
	runUntil(t, c, now+1, 20, func() bool { return done == 2 })
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks=%d, want 1", c.Stats.Writebacks)
	}
	var sawWB bool
	for _, r := range lower.seen {
		if r == 0x000 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatal("lower level never saw the writeback")
	}
	if c.Contains(0x000) {
		t.Fatal("victim still present")
	}
}

func TestCacheLRU(t *testing.T) {
	lower := &instantPort{}
	// 1 set × 2 ways.
	cfg := CacheConfig{Name: "lru", Level: arch.LevelL1, SizeBytes: 128, Ways: 2,
		HitLatency: 1, MSHRs: 4, AcceptsPerCycle: 4}
	c := NewCache(cfg, lower)
	fill := func(now int64, line uint64) int64 {
		ok := false
		c.Tick(now)
		c.Access(now, Req{Line: line, Done: doneFunc(func(int64) { ok = true })})
		return runUntil(t, c, now+1, 30, func() bool { return ok })
	}
	now := fill(0, 0x000)
	now = fill(now+1, 0x080)
	// Touch 0x000 so 0x080 becomes LRU.
	now = fill(now+1, 0x000)
	now = fill(now+1, 0x100)
	if !c.Contains(0x000) || c.Contains(0x080) {
		t.Fatal("LRU victim selection wrong")
	}
	_ = now
}

func TestCacheBypassForwards(t *testing.T) {
	lower := &instantPort{}
	c := NewCache(testCacheCfg(4, 2, 1), lower)
	done := false
	c.Tick(0)
	c.Access(0, Req{Line: 0x200, MinLevel: arch.LevelL2, Done: doneFunc(func(int64) { done = true })})
	lower.Tick(1)
	if !done {
		t.Fatal("bypass request not forwarded")
	}
	if c.Contains(0x200) {
		t.Fatal("bypass request must not allocate")
	}
	if c.Stats.BypassReqs != 1 {
		t.Fatalf("bypass stat %d", c.Stats.BypassReqs)
	}
}

func TestCacheSnoopMOESI(t *testing.T) {
	c := NewCache(testCacheCfg(4, 2, 1), &instantPort{})
	fill := func(line uint64, write bool) {
		ok := false
		c.Tick(0)
		c.Access(0, Req{Line: line, Write: write, Done: doneFunc(func(int64) { ok = true })})
		runUntil(t, c, 1, 20, func() bool { return ok })
	}
	fill(0x000, false) // E
	if got := c.Snoop(2, 0x000, false); got != Shared {
		t.Fatalf("read snoop on E → %v, want S", got)
	}
	fill(0x040, true) // M
	if got := c.Snoop(2, 0x040, false); got != Owned {
		t.Fatalf("read snoop on M → %v, want O", got)
	}
	if got := c.Snoop(3, 0x040, true); got != Invalid {
		t.Fatalf("write snoop → %v, want I", got)
	}
	if c.Contains(0x040) {
		t.Fatal("write snoop must invalidate")
	}
	// Owned line written back on invalidation.
	if c.Stats.Writebacks == 0 {
		t.Fatal("invalidating an owned line must write back")
	}
	if got := c.Snoop(4, 0xdead0, false); got != Invalid {
		t.Fatalf("snoop on absent line → %v, want I", got)
	}
}

func TestBackInvalidation(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		L1: CacheConfig{Name: "L1", Level: arch.LevelL1, SizeBytes: 1 << 10, Ways: 2,
			HitLatency: 1, MSHRs: 4, AcceptsPerCycle: 4},
		L2: CacheConfig{Name: "L2", Level: arch.LevelL2, SizeBytes: 2 << 10, Ways: 2,
			HitLatency: 4, MSHRs: 4, AcceptsPerCycle: 4},
		DRAM: DRAMConfig{Channels: 1, AccessLatency: 10, LineService: 4, QueueDepth: 16},
	})
	done := false
	var cycle int64
	load := func(line uint64) {
		done = false
		h.Access(cycle, Req{Line: line, Done: doneFunc(func(int64) { done = true })})
		for !done {
			cycle++
			h.Tick(cycle)
			if cycle > 100000 {
				t.Fatal("timeout")
			}
		}
		cycle++
		h.Tick(cycle)
		cycle++
	}
	load(0x0000)
	if !h.L1D.Contains(0x0000) || !h.L2.Contains(0x0000) {
		t.Fatal("line must be in both levels")
	}
	// Fill enough conflicting L2 lines to evict 0x0000 from L2.
	// L2: 2KB, 2-way, 16 sets → same set every 16 lines (0x400 stride).
	for i := 1; i <= 2; i++ {
		load(uint64(i) * 0x400)
	}
	if h.L2.Contains(0x0000) {
		t.Fatal("L2 should have evicted the line")
	}
	if h.L1D.Contains(0x0000) {
		t.Fatal("back-invalidation did not remove the line from L1")
	}
	if h.L1D.Stats.Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}
}

func TestStridePrefetcherDetects(t *testing.T) {
	p := NewStridePrefetcher(16)
	var got []uint64
	// Same PC, stride of 2 lines.
	for i := 0; i < 6; i++ {
		got = p.OnAccess(int64(i), uint64(i*2*arch.LineSize), 42, false, nil)
	}
	if len(got) == 0 {
		t.Fatal("no prefetches after confident stride")
	}
	for _, l := range got {
		if (l-uint64(5*2*arch.LineSize))%(2*arch.LineSize) != 0 {
			t.Fatalf("prefetch %#x not on detected stride", l)
		}
	}
	// A different PC must not be confident yet.
	if out := p.OnAccess(10, 0x100000, 43, false, nil); out != nil {
		t.Fatal("fresh PC should not prefetch")
	}
}

func TestStridePrefetcherResetsOnStrideChange(t *testing.T) {
	p := NewStridePrefetcher(16)
	for i := 0; i < 4; i++ {
		p.OnAccess(int64(i), uint64(i*arch.LineSize), 1, false, nil)
	}
	if got := p.OnAccess(5, 0x800000, 1, false, nil); got != nil {
		t.Fatal("stride break must reset confidence")
	}
}

func TestAMPMPrefetcher(t *testing.T) {
	p := NewAMPMPrefetcher()
	base := uint64(1 << 20)
	var got []uint64
	for i := 0; i < 4; i++ {
		got = p.OnAccess(int64(i), base+uint64(i*arch.LineSize), 0, false, nil)
	}
	found := false
	for _, l := range got {
		if l == base+4*arch.LineSize {
			found = true
		}
	}
	if !found {
		t.Fatalf("AMPM missed the +1 pattern: %v", got)
	}
	// Already-accessed lines are not re-prefetched.
	for _, l := range got {
		if l <= base+3*arch.LineSize {
			t.Fatalf("AMPM prefetched an already-accessed line %#x", l)
		}
	}
}

func TestAMPMNegativeStride(t *testing.T) {
	p := NewAMPMPrefetcher()
	base := uint64(1 << 21)
	var got []uint64
	for i := 10; i >= 7; i-- {
		got = p.OnAccess(0, base+uint64(i*arch.LineSize), 0, false, nil)
	}
	found := false
	for _, l := range got {
		if l == base+6*arch.LineSize {
			found = true
		}
	}
	if !found {
		t.Fatalf("AMPM missed the -1 pattern: %v", got)
	}
}

func TestHierarchyPrefetchingHelpsSequential(t *testing.T) {
	run := func(pf bool) (misses uint64, cycles int64) {
		cfg := DefaultHierarchyConfig()
		cfg.Prefetchers = pf
		h := NewHierarchy(cfg)
		var cycle int64
		for i := 0; i < 256; i++ {
			done := false
			req := Req{Line: uint64(i * arch.LineSize), PC: 7, Done: doneFunc(func(int64) { done = true })}
			for !h.Access(cycle, req) {
				cycle++
				h.Tick(cycle)
			}
			for !done {
				cycle++
				h.Tick(cycle)
				if cycle > 1_000_000 {
					t.Fatal("timeout")
				}
			}
		}
		return h.L1D.Stats.Misses, cycle
	}
	withoutMisses, withoutCycles := run(false)
	withMisses, withCycles := run(true)
	if withMisses >= withoutMisses {
		t.Fatalf("prefetching did not reduce L1 misses: %d vs %d", withMisses, withoutMisses)
	}
	if withCycles >= withoutCycles {
		t.Fatalf("prefetching did not reduce cycles: %d vs %d", withCycles, withoutCycles)
	}
}

func TestHierarchyQuiesce(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if !h.Quiesce() {
		t.Fatal("fresh hierarchy must be quiescent")
	}
	done := false
	h.Access(0, Req{Line: 0x40, Done: doneFunc(func(int64) { done = true })})
	if h.Quiesce() {
		t.Fatal("in-flight request must block quiescence")
	}
	var cycle int64
	for !done || !h.Quiesce() {
		cycle++
		h.Tick(cycle)
		if cycle > 100000 {
			t.Fatal("never quiesced")
		}
	}
}

// doneFunc adapts a closure to Completer (tests only: the simulator's
// requesters complete through long-lived handlers and tags).
type doneFunc func(now int64)

func (f doneFunc) Complete(now int64, _ uint64) { f(now) }

// onePerCycle is a lower-level port that rejects everything before open
// and then accepts one request per cycle, recording the order.
type onePerCycle struct {
	open     int64
	lastTick int64
	used     bool
	got      []uint64
}

func (p *onePerCycle) Access(now int64, r Req) bool {
	if now != p.lastTick {
		p.lastTick, p.used = now, false
	}
	if now < p.open || p.used {
		return false
	}
	p.used = true
	p.got = append(p.got, r.Line)
	return true
}

func (p *onePerCycle) Tick(int64) {}

// TestCacheRetriesFillsInAllocationOrder pins the retry order of fills the
// lower level rejected: when it accepts only some of them in a cycle, the
// oldest MSHR goes first. (Retrying by ranging a map let Go's randomized
// iteration order pick.) Lines are neither sorted nor slot-ordered, and
// two merges make sure a secondary miss does not disturb the order.
func TestCacheRetriesFillsInAllocationOrder(t *testing.T) {
	want := []uint64{0x7000, 0x1000, 0x5000, 0x3000}
	for run := 0; run < 50; run++ {
		lower := &onePerCycle{open: 2, lastTick: -1}
		c := NewCache(CacheConfig{
			Name: "T", Level: arch.LevelL1, SizeBytes: 4096, Ways: 4,
			HitLatency: 1, MSHRs: 4, AcceptsPerCycle: 8,
		}, lower)
		for _, l := range want {
			if !c.Access(0, Req{Line: l}) {
				t.Fatalf("run %d: miss on %#x rejected", run, l)
			}
		}
		c.Access(0, Req{Line: want[2]})
		c.Access(0, Req{Line: want[0]})
		for now := int64(1); now <= 8; now++ {
			c.Tick(now)
		}
		if len(lower.got) != len(want) {
			t.Fatalf("run %d: %d fills issued, want %d", run, len(lower.got), len(want))
		}
		for i := range want {
			if lower.got[i] != want[i] {
				t.Fatalf("run %d: fill order %#x, want %#x", run, lower.got, want)
			}
		}
	}
}

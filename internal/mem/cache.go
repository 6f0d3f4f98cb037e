package mem

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/ring"
)

// LineState is a MOESI coherence state (paper: snoop-based MOESI between
// cache levels, Table I).
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Dirty reports whether the state holds data newer than the level below.
func (s LineState) Dirty() bool { return s == Modified || s == Owned }

// Prefetcher reacts to demand accesses and proposes lines to prefetch.
type Prefetcher interface {
	// OnAccess observes a demand access, appends the line addresses to
	// prefetch into the observing cache to dst, and returns the extended
	// slice (the cache passes a reused scratch buffer).
	OnAccess(now int64, line uint64, pc int, hit bool, dst []uint64) []uint64
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name            string
	Level           arch.CacheLevel
	SizeBytes       int
	Ways            int
	HitLatency      int
	MSHRs           int
	AcceptsPerCycle int
	PrefetchQueue   int
}

// CacheStats counts cache-level events.
type CacheStats struct {
	Hits, Misses       uint64
	BypassReqs         uint64
	Evictions          uint64
	Writebacks         uint64
	Rejects            uint64
	PrefetchIssued     uint64
	PrefetchFills      uint64
	PrefetchUsefulHits uint64
	Invalidations      uint64
}

type wayEntry struct {
	tag        uint64
	state      LineState
	lastUsed   int64
	prefetched bool
}

// mshr is one slot of the dense MSHR table. Slots are recycled: valid
// marks an allocated one, and dones keeps its capacity across occupants.
type mshr struct {
	line   uint64
	write  bool
	dones  []completion
	valid  bool
	issued bool
	demand bool
}

// completion is a requester's (Completer, tag) pair, notified once.
type completion struct {
	done Completer
	tag  uint64
}

type timedDone struct {
	at int64
	completion
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg   CacheConfig
	lower Port
	upper *Cache // next level toward the core, for back-invalidation
	pf    Prefetcher

	sets    [][]wayEntry
	numSets uint64
	// mshrs is the dense table of cfg.MSHRs slots; a fill request's tag is
	// its slot index. unissued lists the slots whose fill the lower level
	// has not accepted yet, in allocation order — the order Tick retries
	// them in.
	mshrs    []mshr
	mshrUsed int
	unissued []int
	wbQueue  ring.Queue[Req]
	pfQueue  ring.Queue[uint64]
	pfBuf    []uint64 // prefetcher scratch, reused per access
	pending  []timedDone
	accepted int
	lastTick int64
	activity uint64

	Stats CacheStats
}

// NewCache builds a cache level over the given lower port.
func NewCache(cfg CacheConfig, lower Port) *Cache {
	numSets := cfg.SizeBytes / (arch.LineSize * cfg.Ways)
	if numSets < 1 {
		numSets = 1
	}
	ways := make([]wayEntry, numSets*cfg.Ways)
	sets := make([][]wayEntry, numSets)
	for i := range sets {
		sets[i] = ways[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	if cfg.PrefetchQueue == 0 {
		cfg.PrefetchQueue = 16
	}
	c := &Cache{
		cfg:      cfg,
		lower:    lower,
		sets:     sets,
		numSets:  uint64(numSets),
		mshrs:    make([]mshr, cfg.MSHRs),
		unissued: make([]int, 0, cfg.MSHRs),
		pfQueue:  ring.New[uint64](cfg.PrefetchQueue),
		pending:  make([]timedDone, 0, 64),
		pfBuf:    make([]uint64, 0, 8),
	}
	for i := range c.mshrs {
		c.mshrs[i].dones = make([]completion, 0, 8)
	}
	return c
}

// SetUpper links the cache level closer to the core (for back-invalidation
// when this level evicts a line the upper one holds).
func (c *Cache) SetUpper(u *Cache) { c.upper = u }

// SetPrefetcher attaches a hardware prefetcher to this level.
func (c *Cache) SetPrefetcher(p Prefetcher) { c.pf = p }

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setOf(line uint64) []wayEntry {
	return c.sets[(line/arch.LineSize)%c.numSets]
}

func (c *Cache) lookup(line uint64) *wayEntry {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

// Contains reports whether the line is present (any valid state).
func (c *Cache) Contains(line uint64) bool { return c.lookup(line) != nil }

// StateOf returns the MOESI state of the line.
func (c *Cache) StateOf(line uint64) LineState {
	if e := c.lookup(line); e != nil {
		return e.state
	}
	return Invalid
}

// Access implements Port.
func (c *Cache) Access(now int64, r Req) bool {
	c.activity++ // every outcome mutates: an allocation, a hit update, or a reject tally
	if now != c.lastTick {
		// Defensive: budget is normally reset in Tick; handle out-of-order
		// first use within a cycle.
		c.accepted = 0
		c.lastTick = now
	}
	if c.accepted >= c.cfg.AcceptsPerCycle {
		c.Stats.Rejects++
		return false
	}

	// Non-cacheable at this level: forward to the level below (the paper's
	// stream cache-level bypass issues the request as non-cacheable on all
	// levels above the configured one, §IV-A).
	if r.MinLevel > c.cfg.Level {
		if !c.lower.Access(now, r) {
			c.Stats.Rejects++
			return false
		}
		c.accepted++
		c.Stats.BypassReqs++
		return true
	}

	line := r.Line & arch.LineMask
	if e := c.lookup(line); e != nil {
		c.accepted++
		c.Stats.Hits++
		e.lastUsed = now
		if e.prefetched {
			e.prefetched = false
			c.Stats.PrefetchUsefulHits++
		}
		if r.Write && e.state != Modified {
			e.state = Modified
		}
		if r.Done != nil {
			c.schedule(now+int64(c.cfg.HitLatency), completion{r.Done, r.Tag})
		}
		c.observe(now, line, r.PC, true)
		return true
	}

	// Miss: merge into an existing MSHR if one is outstanding.
	if slot := c.mshrFor(line); slot >= 0 {
		ms := &c.mshrs[slot]
		c.accepted++
		c.Stats.Hits++ // secondary miss, already in flight
		if r.Write {
			ms.write = true
		}
		if !r.Prefetch {
			ms.demand = true
		}
		if r.Done != nil {
			ms.dones = append(ms.dones, completion{r.Done, r.Tag})
		}
		c.observe(now, line, r.PC, false)
		return true
	}
	if c.mshrUsed >= c.cfg.MSHRs {
		c.Stats.Rejects++
		return false
	}
	c.accepted++
	c.Stats.Misses++
	slot := c.allocMSHR(line, r.Write, !r.Prefetch)
	if r.Done != nil {
		c.mshrs[slot].dones = append(c.mshrs[slot].dones, completion{r.Done, r.Tag})
	}
	if !c.issueFill(now, slot) {
		c.unissued = append(c.unissued, slot)
	}
	c.observe(now, line, r.PC, false)
	return true
}

// mshrFor returns the slot of the outstanding MSHR for line, or -1.
func (c *Cache) mshrFor(line uint64) int {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].line == line {
			return i
		}
	}
	return -1
}

// allocMSHR claims a free slot (the caller checked mshrUsed) for a fill
// of line.
func (c *Cache) allocMSHR(line uint64, write, demand bool) int {
	for i := range c.mshrs {
		ms := &c.mshrs[i]
		if ms.valid {
			continue
		}
		ms.line, ms.write, ms.demand = line, write, demand
		ms.valid, ms.issued = true, false
		ms.dones = ms.dones[:0]
		c.mshrUsed++
		return i
	}
	panic("mem: MSHR table full")
}

func (c *Cache) freeMSHR(slot int) {
	c.mshrs[slot].valid = false
	c.mshrUsed--
}

func (c *Cache) observe(now int64, line uint64, pc int, hit bool) {
	if c.pf == nil {
		return
	}
	c.pfBuf = c.pf.OnAccess(now, line, pc, hit, c.pfBuf[:0])
	for _, l := range c.pfBuf {
		if c.pfQueue.Len() >= c.cfg.PrefetchQueue {
			break
		}
		l &= arch.LineMask
		if c.lookup(l) != nil || c.mshrFor(l) >= 0 {
			continue
		}
		c.pfQueue.Push(l)
	}
}

// issueFill offers the slot's fill to the lower level and reports whether
// it was accepted.
func (c *Cache) issueFill(now int64, slot int) bool {
	ms := &c.mshrs[slot]
	if c.lower.Access(now, Req{Line: ms.line, Done: c, Tag: uint64(slot)}) {
		ms.issued = true
	}
	return ms.issued
}

// Complete implements Completer for this level's own fill requests: the
// tag is the MSHR slot. A slot is freed only by its fill, so no fill
// completion can outlive the occupant it names.
func (c *Cache) Complete(now int64, tag uint64) { c.fill(now, int(tag)) }

// fill installs a line when the lower level responds.
func (c *Cache) fill(now int64, slot int) {
	ms := &c.mshrs[slot]
	line := ms.line
	c.freeMSHR(slot)
	set := c.setOf(line)
	victim := &set[0]
	for i := range set {
		if set[i].state == Invalid {
			victim = &set[i]
			break
		}
		if set[i].lastUsed < victim.lastUsed {
			victim = &set[i]
		}
	}
	if victim.state != Invalid {
		c.evict(now, victim)
	}
	victim.tag = line
	victim.lastUsed = now
	victim.prefetched = !ms.demand
	if !ms.demand {
		c.Stats.PrefetchFills++
	}
	if ms.write {
		victim.state = Modified
	} else {
		victim.state = Exclusive
	}
	// Nothing above allocates an MSHR, so the freed slot still holds them.
	for _, done := range ms.dones {
		c.schedule(now+int64(c.cfg.HitLatency), done)
	}
}

func (c *Cache) evict(now int64, e *wayEntry) {
	c.Stats.Evictions++
	if e.state.Dirty() {
		c.Stats.Writebacks++
		wb := Req{Line: e.tag, Write: true}
		if !c.lower.Access(now, wb) {
			c.wbQueue.Push(wb)
		}
	}
	if c.upper != nil {
		c.upper.Invalidate(now, e.tag)
	}
	e.state = Invalid
	e.prefetched = false
}

// Invalidate removes the line (back-invalidation from the level below or a
// write snoop). A dirty copy is written back directly to memory, bypassing
// the level that initiated the invalidation.
func (c *Cache) Invalidate(now int64, line uint64) {
	e := c.lookup(line)
	if e == nil {
		return
	}
	c.Stats.Invalidations++
	if e.state.Dirty() {
		c.Stats.Writebacks++
		wb := Req{Line: e.tag, Write: true, MinLevel: arch.LevelMem}
		if !c.lower.Access(now, wb) {
			c.wbQueue.Push(wb)
		}
	}
	if c.upper != nil {
		c.upper.Invalidate(now, line)
	}
	e.state = Invalid
	e.prefetched = false
}

// Snoop applies a MOESI bus snoop to the line: a read snoop demotes
// Exclusive→Shared and Modified→Owned (this cache supplies the data); a
// write snoop invalidates. It returns the state after the snoop.
func (c *Cache) Snoop(now int64, line uint64, write bool) LineState {
	e := c.lookup(line)
	if e == nil {
		return Invalid
	}
	if write {
		c.Invalidate(now, line)
		return Invalid
	}
	switch e.state {
	case Exclusive:
		e.state = Shared
	case Modified:
		e.state = Owned
	}
	return e.state
}

func (c *Cache) schedule(at int64, done completion) {
	c.pending = append(c.pending, timedDone{at: at, completion: done})
}

// Tick implements Port.
func (c *Cache) Tick(now int64) {
	c.accepted = 0
	c.lastTick = now

	// Retry unissued fills, in allocation order, and queued writebacks.
	kept := c.unissued[:0]
	for _, slot := range c.unissued {
		c.activity++ // issue, or the lower level's reject tally
		if !c.issueFill(now, slot) {
			kept = append(kept, slot)
		}
	}
	c.unissued = kept
	for c.wbQueue.Len() > 0 {
		c.activity++
		if !c.lower.Access(now, *c.wbQueue.Front()) {
			break
		}
		c.wbQueue.PopFront()
	}
	// Issue queued prefetches with leftover capacity.
	for c.pfQueue.Len() > 0 && c.accepted < c.cfg.AcceptsPerCycle && c.mshrUsed < c.cfg.MSHRs {
		c.activity++
		line := *c.pfQueue.Front()
		if c.lookup(line) != nil || c.mshrFor(line) >= 0 {
			c.pfQueue.PopFront()
			continue
		}
		slot := c.allocMSHR(line, false, false)
		if !c.issueFill(now, slot) {
			c.freeMSHR(slot)
			break
		}
		c.Stats.PrefetchIssued++
		c.accepted++
		c.pfQueue.PopFront()
	}
	// Fire matured completions.
	pend := c.pending[:0]
	for _, p := range c.pending {
		if p.at <= now {
			c.activity++
			p.done.Complete(now, p.tag)
		} else {
			pend = append(pend, p)
		}
	}
	c.pending = pend
}

// PendingOps reports outstanding internal work (for drain detection).
func (c *Cache) PendingOps() int {
	return c.mshrUsed + c.wbQueue.Len() + len(c.pending)
}

// NextEventAt returns a lower bound on the cycle of this cache's next state
// change, assuming no new requests arrive: now+1 while any retry work could
// run in the next Tick (unissued fills, queued writebacks or prefetches —
// those retries also mutate reject counters below, so they are never
// skippable), the earliest matured completion otherwise, or NoEvent when
// the cache is fully quiescent. The event-driven scheduler may advance time
// directly to the minimum such bound; Ticks before it are provable no-ops.
func (c *Cache) NextEventAt(now int64) int64 {
	if len(c.unissued) > 0 || c.wbQueue.Len() > 0 || c.pfQueue.Len() > 0 {
		return now + 1
	}
	next := int64(NoEvent)
	for _, p := range c.pending {
		if p.at < next {
			next = p.at
		}
	}
	return next
}

func (c *Cache) String() string {
	return fmt.Sprintf("%s{%dKB %d-way, hits=%d misses=%d}",
		c.cfg.Name, c.cfg.SizeBytes/1024, c.cfg.Ways, c.Stats.Hits, c.Stats.Misses)
}

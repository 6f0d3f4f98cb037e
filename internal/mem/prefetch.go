package mem

import (
	"repro/internal/arch"
	"repro/internal/ring"
)

// StridePrefetcher is the per-PC stride prefetcher attached to the
// baseline's L1-D (Table I: "Stride Prefetcher with depth 16"). On a
// confirmed stride it prefetches up to Depth strides ahead, ramping the
// distance as confidence grows.
type StridePrefetcher struct {
	Depth  int
	Degree int // prefetches issued per triggering access

	// table maps a PC to its entry in slab; both are cleared together
	// when the table outgrows its bound, keeping their storage.
	table map[int]int
	slab  []strideEntry
}

type strideEntry struct {
	lastLine uint64
	stride   int64
	conf     int
	dist     int64
}

// strideTableMax bounds the stride table: one more PC empties it.
const strideTableMax = 256

// NewStridePrefetcher builds a stride prefetcher of the given depth.
func NewStridePrefetcher(depth int) *StridePrefetcher {
	return &StridePrefetcher{Depth: depth, Degree: 2, table: make(map[int]int, strideTableMax+1), slab: make([]strideEntry, 0, strideTableMax+1)}
}

// OnAccess implements Prefetcher.
func (p *StridePrefetcher) OnAccess(now int64, line uint64, pc int, hit bool, dst []uint64) []uint64 {
	i, ok := p.table[pc]
	if !ok {
		if len(p.table) > strideTableMax {
			clear(p.table) // crude capacity bound
			p.slab = p.slab[:0]
		}
		p.table[pc] = len(p.slab)
		p.slab = append(p.slab, strideEntry{lastLine: line})
		return dst
	}
	e := &p.slab[i]
	stride := int64(line) - int64(e.lastLine)
	if line == e.lastLine {
		return dst // same-line re-reference carries no stride signal
	}
	if stride == e.stride && stride != 0 {
		if e.conf < 4 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
		e.dist = 0
	}
	e.lastLine = line
	if e.conf < 2 {
		return dst
	}
	// Ramp the prefetch distance up to Depth strides ahead.
	for i := 0; i < p.Degree; i++ {
		if e.dist < int64(p.Depth) {
			e.dist++
		}
		target := int64(line) + e.stride*e.dist
		if target > 0 {
			dst = append(dst, uint64(target))
		}
	}
	return dst
}

// AMPMPrefetcher approximates the Access Map Pattern Matching prefetcher of
// Ishii et al. attached to the baseline's L2 (Table I). Memory is divided
// into zones; each zone keeps a bitmap of demand-accessed lines, and on each
// access candidate strides k are tested: if lines -k and -2k were accessed,
// line +k matches the pattern and is prefetched.
type AMPMPrefetcher struct {
	ZoneLines int // lines per access map zone
	MaxStride int
	Degree    int
	// zones holds the live access maps, oldest first; the oldest is
	// evicted (and its bitmap reused) when a new zone needs room. Until
	// then, new bitmaps are carved from backing.
	zones    ring.Queue[ampmZone]
	maxZones int
	backing  []bool
}

type ampmZone struct {
	id   uint64
	bits []bool
}

// NewAMPMPrefetcher builds an AMPM prefetcher with 4 KB zones.
func NewAMPMPrefetcher() *AMPMPrefetcher {
	const maxZones = 64
	return &AMPMPrefetcher{
		ZoneLines: arch.PageSize / arch.LineSize,
		MaxStride: 16,
		Degree:    2,
		zones:     ring.New[ampmZone](maxZones),
		maxZones:  maxZones,
		backing:   make([]bool, maxZones*arch.PageSize/arch.LineSize),
	}
}

// zoneMap returns the access map of zone, starting a cleared one when the
// zone is not tracked. The scan runs newest first: accesses cluster in
// recently touched zones.
func (p *AMPMPrefetcher) zoneMap(zone uint64) []bool {
	for i := p.zones.Len() - 1; i >= 0; i-- {
		if z := p.zones.At(i); z.id == zone {
			return z.bits
		}
	}
	var zm []bool
	n := p.zones.Len()
	switch {
	case n >= p.maxZones:
		zm = p.zones.PopFront().bits
		clear(zm)
	case (n+1)*p.ZoneLines <= len(p.backing):
		zm = p.backing[n*p.ZoneLines : (n+1)*p.ZoneLines : (n+1)*p.ZoneLines]
	default:
		zm = make([]bool, p.ZoneLines)
	}
	p.zones.Push(ampmZone{id: zone, bits: zm})
	return zm
}

// OnAccess implements Prefetcher.
func (p *AMPMPrefetcher) OnAccess(now int64, line uint64, pc int, hit bool, dst []uint64) []uint64 {
	lineNo := line / arch.LineSize
	zone := lineNo / uint64(p.ZoneLines)
	idx := int(lineNo % uint64(p.ZoneLines))
	zm := p.zoneMap(zone)
	zm[idx] = true

	emitted := 0
	for k := 1; k <= p.MaxStride; k++ {
		for _, s := range [2]int{k, -k} {
			// Lines -s and -2s accessed: line +s matches the pattern.
			a, b, t := idx-s, idx-2*s, idx+s
			if a < 0 || a >= p.ZoneLines || b < 0 || b >= p.ZoneLines || !zm[a] || !zm[b] {
				continue
			}
			if t < 0 || t >= p.ZoneLines || zm[t] {
				continue
			}
			dst = append(dst, (zone*uint64(p.ZoneLines)+uint64(t))*arch.LineSize)
			if emitted++; emitted >= p.Degree {
				return dst
			}
		}
	}
	return dst
}

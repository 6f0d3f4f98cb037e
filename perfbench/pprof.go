package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU profile of a traced run is reduced here, without the pprof
// module: only the few profile.proto fields the reduction needs are
// decoded (samples, locations with their inline lines, functions and the
// string table).

// profUnits are the shares reported as prof.<name>: the self time of the
// samples taken inside cpu.(*Core).Run, split by the leaf function's
// package or runtime role.
var profUnits = []string{"cpu", "engine", "mem", "descriptor", "gc", "map", "sort"}

// classify maps a leaf function name to a unit ("" = other).
func classify(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/cpu."):
		return "cpu"
	case strings.HasPrefix(fn, "repro/internal/engine."):
		return "engine"
	case strings.HasPrefix(fn, "repro/internal/mem."):
		return "mem"
	case strings.HasPrefix(fn, "repro/internal/descriptor."):
		return "descriptor"
	case strings.HasPrefix(fn, "sort.") || strings.HasPrefix(fn, "slices.") ||
		strings.HasPrefix(fn, "internal/reflectlite.Swapper"):
		return "sort"
	case strings.Contains(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps."):
		return "map"
	case strings.HasPrefix(fn, "runtime.") && isAllocOrGC(fn[len("runtime."):]):
		return "gc"
	}
	return ""
}

func isAllocOrGC(f string) bool {
	for _, p := range []string{
		"mallocgc", "newobject", "growslice", "makeslice", "makemap", "memclrNoHeapPointers",
		"gc", "scanobject", "greyobject", "findObject", "markBits", "heapBits", "heapSetType",
		"(*mspan)", "(*mcache)", "(*mheap)", "(*mcentral)", "nextFreeFast", "wbBuf", "bulkBarrier",
		"typePointers", "deductAssistCredit", "sweep", "spanOf", "mallocgcSmall", "mallocgcTiny",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profile accumulates CPU-profile samples inside cpu.(*Core).Run over
// several profiled sections.
type profile struct {
	counts map[string]float64 // unit -> samples
	total  int
}

// record runs f under the CPU profiler and adds the samples it took.
func (p *profile) record(f func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	counts, total, err := profileCounts(buf.Bytes())
	if err != nil {
		return err
	}
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	for u, n := range counts {
		p.counts[u] += n
	}
	p.total += total
	return nil
}

// profileCounts returns each unit's count of the samples whose stack
// contains cpu.(*Core).Run, and that sample count.
func profileCounts(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = pbFields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s struct {
				locs  []uint64
				count int64
			}
			first := true
			err := pbFields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					if vals := appendPacked(nil, wt, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	counts := map[string]float64{}
	var total int64
	for _, s := range samples {
		inRun := false
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if name(f) == "repro/internal/cpu.(*Core).Run" {
					inRun = true
				}
			}
		}
		if !inRun || len(s.locs) == 0 || len(locs[s.locs[0]]) == 0 {
			continue
		}
		total += s.count
		if u := classify(name(locs[s.locs[0]][0])); u != "" {
			counts[u] += float64(s.count)
		}
	}
	return counts, int(total), nil
}

// pbFields walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func pbFields(b []byte, f func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := f(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

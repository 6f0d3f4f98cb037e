package main

import (
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The reference host is a VM on a shared machine
// whose speed moves by up to half between runs a few minutes apart, and
// sometimes in the middle of one, often while steal time stays near zero:
// the program runs slower while it runs, as the machine's caches and
// memory are contended. Every run of a workload does the same work, so that drift
// lands in full in the run-to-run spread, and no length of run that the
// time budget allows averages it out.
//
// The benchmark therefore times a fixed loop of its own between passes
// (and around every set-up), while the program under test is idle, and
// reports each end-to-end time scaled by calibNominalMs over that loop's
// time, averaged over the calibrations right before and right after: the
// time the pass would have taken with the host at its nominal speed. The loop uses only memory the benchmark owns, allocates nothing
// and calls no repository code, so a change to the program cannot move it;
// it does the kind of work that slows with the host (hash-table probes, a
// pointer walk and a sort over about 2 MiB, mapped outside the Go heap so
// that it counts in neither the retained heap nor the collector's work).
// The unscaled times and the scale factors are printed on every run.

// calibNominalMs is the calibration loop's median on the reference host
// at its usual speed; it only sets the unit the scaled times read in.
const calibNominalMs = 4.0

// calibReps is how many timed runs of the loop each calibrating thread
// makes, after one untimed run that brings its data into cache.
const calibReps = 4

type calibData struct {
	table  []uint64 // open-addressed hash table, 1 MiB
	next   []int32  // a seeded cyclic permutation, walked as a linked list
	val    []int32
	sorted []int32
}

// calibs holds one data set per worker: the loop runs on as many threads
// as the workloads do, so it sees the speed of every CPU they run on.
var calibs = func() []*calibData {
	ds := make([]*calibData, workers)
	for i := range ds {
		ds[i] = newCalibData()
	}
	return ds
}()

// offHeap maps n zeroed elements of T outside the Go heap.
func offHeap[T any](n int) []T {
	var z T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(z)), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func newCalibData() *calibData {
	d := &calibData{
		table:  offHeap[uint64](1 << 17),
		next:   offHeap[int32](1 << 17),
		val:    offHeap[int32](1 << 17),
		sorted: offHeap[int32](1 << 14),
	}
	rng := &splitmix{0xca11b}
	order := rng.perm(len(d.next)) // garbage once the ring is linked
	for i, p := range order {
		d.next[p] = int32(order[(i+1)%len(order)])
		d.val[i] = int32(rng.next())
	}
	return d
}

// once runs the loop one time and returns a value that depends on all of
// its work.
func (d *calibData) once() int64 {
	clear(d.table)
	mask := uint64(len(d.table) - 1)
	slot := func(k uint64) uint64 {
		h := (k >> 17) & mask
		for d.table[h] != 0 && d.table[h] != k {
			h = (h + 1) & mask
		}
		return h
	}
	for i := uint64(1); i <= 60_000; i++ {
		k := i * 0x9e3779b97f4a7c15
		d.table[slot(k)] = k
	}
	found := int64(0)
	for i := uint64(1); i <= 90_000; i++ {
		k := (i%80_000 + 1) * 0x9e3779b97f4a7c15
		if d.table[slot(k)] == k {
			found++
		}
	}
	j, s := int32(0), int32(0)
	for i := 0; i < 150_000; i++ {
		s ^= d.val[j]
		j = d.next[j]
	}
	copy(d.sorted, d.val)
	slices.Sort(d.sorted)
	return found + int64(s) + int64(d.sorted[len(d.sorted)/2])
}

// hostScale runs the calibration loop on every worker thread at once and
// returns calibNominalMs over the mean of the threads' median times: the
// factor that turns a time measured now into one at the host's nominal
// speed. The threads' speeds differ when the CPUs they land on are
// contended differently, and the workloads use both.
func hostScale() float64 {
	ts := make([]float64, len(calibs)*calibReps)
	sums := make([]int64, len(calibs))
	var wg sync.WaitGroup
	for w, d := range calibs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = d.once()
			for r := 0; r < calibReps; r++ {
				t := time.Now()
				sums[w] += d.once()
				ts[w*calibReps+r] = float64(time.Since(t).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		calibSink += s
	}
	ms := 0.0
	for w := range calibs {
		ms += median(ts[w*calibReps:(w+1)*calibReps]) / float64(len(calibs))
	}
	return calibNominalMs / ms
}

var calibSink int64

// scaleAll multiplies every element of xs by f.
func scaleAll(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

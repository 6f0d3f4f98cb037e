package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailOf returns the highest percentile that still has at least ten samples
// beyond it, with that percentile. Below 21 samples that percentile lies
// under the median, so the median is returned as p50.
func tailOf(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 21 {
		return median(s), 50
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// latencies collects per-operation times in milliseconds, split by whether
// the operation was answered from a cache (hit) or had to simulate (miss).
type latencies struct{ hit, miss []float64 }

func (l *latencies) add(hit bool, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	if hit {
		l.hit = append(l.hit, ms)
	} else {
		l.miss = append(l.miss, ms)
	}
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// medianSetup runs a set-up n times, each on a collected heap, and returns
// the median duration in seconds at the host's nominal speed (calibrated
// before and after each set-up), keeping the last set-up's product.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < n; i++ {
		var v T
		var err error
		runtime.GC()
		f0 := hostScale()
		d := timeIt(func() { v, err = setup() })
		if err != nil {
			return last, 0, err
		}
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
		ds = append(ds, d.Seconds()*(f0+hostScale())/2)
	}
	return last, median(ds), nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and returns the live heap in MiB: what the
// program still holds at this point. Workloads call it at the end of each
// pass, while the pass's runner or server still holds every result; the
// resident set, by contrast, swings by tens of percent with when
// collections happen to run. It does not see a simulation's memory in
// flight; the per-layer allocation metrics cover that.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// splitmix is the benchmark's seeded generator: every input a workload
// draws comes from one of these, so a seed fixes the inputs.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws uniformly from [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float draws uniformly from [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

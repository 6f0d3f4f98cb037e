package engine

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// TestStaleLineFetchDropped squashes a stream (an epoch bump, as exception
// recovery does) while one of its line fetches is in flight, lets the
// regenerated stream issue fetches of its own — on recycled records — and
// then delivers the squashed fetch's completion twice: once while its record
// still names it (the epoch check drops the data), once after the record
// was recycled (the generation check drops the completion outright). Neither
// may touch the new epoch's chunks, and the stream still delivers the right
// data.
func TestStaleLineFetchDropped(t *testing.T) {
	r := newRig(t, DefaultConfig())
	const n = 256
	base := r.h.Mem.Alloc(4*n, arch.LineSize)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)*7 + 3
	}
	r.fillInts(base, arch.W4, vals)
	d := descriptor.New(base, arch.W4, descriptor.Load).Linear(n, 1).MustBuild()
	r.configure(0, d)
	slot, _ := r.e.StreamFor(0)

	inFlight := func(epoch uint64) *lineFetch {
		for _, f := range r.e.mrq {
			if f.issued && f.slot == slot && f.epoch == epoch {
				return f
			}
		}
		return nil
	}
	var stale *lineFetch
	for i := 0; i < 100 && stale == nil; i++ {
		r.tick()
		stale = inFlight(r.e.entries[slot].epoch)
	}
	if stale == nil {
		t.Fatal("no line fetch in flight")
	}
	staleTag := fetchTag(stale)

	r.e.ReloadFromCommit(slot)
	s := r.e.entries[slot]
	for i := 0; i < 100 && (inFlight(s.epoch) == nil || s.genPos == 0); i++ {
		r.tick()
	}
	if inFlight(s.epoch) == nil {
		t.Fatal("regenerated stream issued no line fetch")
	}

	type chunkState struct {
		seq       int64
		n         int
		pendLines int
		data      []uint64
	}
	snapshot := func() []chunkState {
		var out []chunkState
		for seq := s.commitPos; seq < s.genPos; seq++ {
			c := &s.fifo[seq%int64(len(s.fifo))]
			out = append(out, chunkState{c.seq, c.n, c.pendLines, append([]uint64(nil), c.data...)})
		}
		return out
	}
	equal := func(a, b []chunkState) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].seq != b[i].seq || a[i].n != b[i].n || a[i].pendLines != b[i].pendLines || len(a[i].data) != len(b[i].data) {
				return false
			}
			for j := range a[i].data {
				if a[i].data[j] != b[i].data[j] {
					return false
				}
			}
		}
		return true
	}

	before := snapshot()
	mrqLen := len(r.e.mrq)
	r.e.Complete(r.now, staleTag)
	if !equal(before, snapshot()) {
		t.Fatal("stale completion (epoch check) changed the regenerated stream's chunks")
	}
	if len(r.e.mrq) != mrqLen-1 {
		t.Fatalf("stale fetch not retired from the MRQ: %d entries, want %d", len(r.e.mrq), mrqLen-1)
	}
	free := len(r.e.freeFetches)
	r.e.Complete(r.now, staleTag)
	if !equal(before, snapshot()) || len(r.e.mrq) != mrqLen-1 || len(r.e.freeFetches) != free {
		t.Fatal("completion for a recycled record was not ignored")
	}

	// Run the stream out: the hierarchy's own late completion of the stale
	// fetch is dropped too, and every element arrives intact.
	got := 0
	for got < n {
		v := r.consume(0)
		if !v.Consumed {
			t.Fatalf("stream ended after %d of %d elements", got, n)
		}
		for l := 0; l < v.N; l++ {
			if v.Data.Lane(l) != vals[got] {
				t.Fatalf("element %d = %d, want %d", got, v.Data.Lane(l), vals[got])
			}
			got++
		}
		r.e.CommitConsume(slot, v.Seq)
	}
}

package ring

import "testing"

// TestQueueMatchesSlice drives a queue and a plain slice through the same
// pushes, pops and removals, across several wrap-arounds and growths.
func TestQueueMatchesSlice(t *testing.T) {
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 2000; step++ {
		switch {
		case step%7 == 3 && len(ref) > 2:
			i := step % len(ref)
			q.Remove(i)
			ref = append(ref[:i], ref[i+1:]...)
		case step%3 == 0 && len(ref) > 0:
			if got := q.PopFront(); got != ref[0] {
				t.Fatalf("step %d: PopFront = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		default:
			q.Push(next)
			ref = append(ref, next)
			next++
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
}

// TestPushSlotRecyclesBuffers checks that a popped or removed slot's
// buffer comes back through PushSlot instead of being dropped.
func TestPushSlotRecyclesBuffers(t *testing.T) {
	q := New[[]uint64](4)
	for i := 0; i < 4; i++ {
		s := q.PushSlot()
		*s = append((*s)[:0], uint64(i))
	}
	q.Remove(1)
	q.PopFront()
	for i := 0; i < 2; i++ {
		s := q.PushSlot()
		if cap(*s) == 0 {
			t.Fatalf("PushSlot %d returned a slot without the recycled buffer", i)
		}
		*s = append((*s)[:0], uint64(10+i))
	}
	want := []uint64{2, 3, 10, 11}
	for i, w := range want {
		if got := (*q.At(i))[0]; got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		q.PopFront()
		q.Push(nil)
	}); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times", allocs)
	}
}

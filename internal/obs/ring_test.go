package obs

import (
	"slices"
	"testing"
)

// TestRingEviction pushes 0..pushes-1 into rings of several capacities:
// the newest entries survive oldest-first, every overwrite is counted, and
// a snapshot is a copy the ring does not write through.
func TestRingEviction(t *testing.T) {
	for _, tc := range []struct {
		name             string
		capacity, pushes int
		want             []int
		dropped          uint64
	}{
		{"empty", 4, 0, []int{}, 0},
		{"partial", 4, 3, []int{0, 1, 2}, 0},
		{"exactly full", 4, 4, []int{0, 1, 2, 3}, 0},
		{"wrapped once", 4, 5, []int{1, 2, 3, 4}, 1},
		{"wrapped mid-ring", 4, 10, []int{6, 7, 8, 9}, 6},
		{"wrapped to the start", 4, 12, []int{8, 9, 10, 11}, 8},
		{"capacity one", 1, 3, []int{2}, 2},
		{"capacity clamped to one", 0, 2, []int{1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			for i := 0; i < tc.pushes; i++ {
				r.Push(i)
			}
			got := r.Snapshot()
			if !slices.Equal(got, tc.want) {
				t.Errorf("snapshot = %v, want %v", got, tc.want)
			}
			if r.Len() != len(tc.want) {
				t.Errorf("Len = %d, want %d", r.Len(), len(tc.want))
			}
			if r.Dropped() != tc.dropped {
				t.Errorf("Dropped = %d, want %d", r.Dropped(), tc.dropped)
			}
			r.Push(-1)
			if !slices.Equal(got, tc.want) {
				t.Errorf("a later push changed an earlier snapshot: %v", got)
			}
		})
	}
}

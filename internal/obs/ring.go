package obs

// Ring is a bounded buffer that overwrites its oldest entry once full: the
// storage behind the span ring, the flight recorder, the metrics history
// and the continuous profiler's captures. Its storage is allocated up
// front, so pushing never allocates. It is not safe for concurrent use;
// owners guard it with their own lock.
type Ring[T any] struct {
	buf     []T
	next    int // overwrite cursor once full
	dropped uint64
}

// NewRing returns an empty ring holding at most capacity entries
// (at least one).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Push appends v, overwriting the oldest entry once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Len returns how many entries the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped returns how many entries have been overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Snapshot returns a copy of the entries, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

package core

// ring is a FIFO over a power-of-two circular buffer: the machine's
// queues (fetch queue, window, per-thread ROB order, a stream's replay
// records) push at the back, retire from the front and are read by age
// index. It grows by doubling only when a push finds it full, so after
// warm-up a queue holds one buffer sized to its high-water mark and the
// cycle loop allocates nothing.
type ring[T any] struct {
	buf  []T
	head int // buf index of the oldest element
	n    int
}

// newRing returns a ring with room for at least size elements.
func newRing[T any](size int) ring[T] {
	c := 1
	for c < size {
		c <<= 1
	}
	return ring[T]{buf: make([]T, c)}
}

func (r *ring[T]) len() int { return r.n }

// slot returns the buffer index of the i-th oldest element.
func (r *ring[T]) slot(i int) int { return (r.head + i) & (len(r.buf) - 1) }

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) T { return r.buf[r.slot(i)] }

// ptr returns a pointer to the i-th oldest element, valid until the ring
// next changes.
func (r *ring[T]) ptr(i int) *T { return &r.buf[r.slot(i)] }

func (r *ring[T]) front() T { return r.buf[r.head] }

func (r *ring[T]) push(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = x
	r.n++
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}

// popFront drops the k oldest elements.
func (r *ring[T]) popFront(k int) {
	for ; k > 0; k-- {
		clear(r.buf[r.head : r.head+1])
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
	}
}

// filter keeps, in order, the elements for which keep returns true.
func (r *ring[T]) filter(keep func(T) bool) {
	var zero T
	k := 0
	for i := 0; i < r.n; i++ {
		if x := r.at(i); keep(x) {
			r.buf[r.slot(k)] = x
			k++
		}
	}
	for i := k; i < r.n; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.n = k
}

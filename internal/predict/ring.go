package predict

import (
	"errors"
	"fmt"
	"math"
)

// Ring is a bounded FIFO of samples: once full, each Push evicts the
// oldest value. It is the one history buffer of this package and of the
// serving layer's error windows.
//
// Storage is rotated, so aggregations must visit values oldest first
// (Do, AppendTo), never in storage order: float addition is not
// associative, and a ring loaded from state is compacted while a live
// one is rotated — identical contents must give bit-identical sums.
// Order-insensitive consumers (extrema, sorts) may read Unordered.
type Ring struct {
	buf  []float64
	next int // storage index of the oldest value once full
}

// MakeRing returns an empty ring holding at most capacity (≥ 1) values.
func MakeRing(capacity int) Ring {
	return Ring{buf: make([]float64, 0, max(capacity, 1))}
}

// Push appends x, returning the value it evicted (ok is false while the
// ring was not yet full).
func (r *Ring) Push(x float64) (evicted float64, ok bool) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
		return 0, false
	}
	evicted = r.buf[r.next]
	r.buf[r.next] = x
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	return evicted, true
}

// Len returns the number of retained values.
func (r *Ring) Len() int { return len(r.buf) }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return cap(r.buf) }

// Last returns the newest value (0 when empty).
func (r *Ring) Last() float64 {
	if len(r.buf) == 0 {
		return 0
	}
	if r.next == 0 {
		return r.buf[len(r.buf)-1]
	}
	return r.buf[r.next-1]
}

// Do calls fn on every retained value, oldest first.
func (r *Ring) Do(fn func(float64)) {
	for _, v := range r.buf[r.next:] {
		fn(v)
	}
	for _, v := range r.buf[:r.next] {
		fn(v)
	}
}

// AppendTo appends the retained values to dst, oldest first.
func (r *Ring) AppendTo(dst []float64) []float64 {
	return append(append(dst, r.buf[r.next:]...), r.buf[:r.next]...)
}

// Unordered returns the retained values in storage order. The slice
// aliases the ring.
func (r *Ring) Unordered() []float64 { return r.buf }

// Reset discards every value.
func (r *Ring) Reset() { r.buf, r.next = r.buf[:0], 0 }

// AppendState appends the ring's state: the count, then the values
// oldest first.
func (r *Ring) AppendState(dst []float64) []float64 {
	return r.AppendTo(append(dst, float64(len(r.buf))))
}

// Stateful is implemented by predictors whose exact state serializes to
// a flat vector: AppendState appends it to dst, and LoadState replaces
// the predictor's state with the vector at the head of src and returns
// the rest. A predictor restored this way continues bit-identically to
// the one that was saved. Configuration (orders, weights, capacities) is
// not state: it comes from the constructor, and a vector that does not
// fit it is rejected.
//
// LoadState validates everything it reads: the length, finite values,
// integral counts within range, and positive samples where the predictor
// admits only positive ones. After an error the predictor's state is
// unspecified: Reset or discard it.
type Stateful interface {
	AppendState(dst []float64) []float64
	LoadState(src []float64) (rest []float64, err error)
}

// ErrBadState tags a state vector that LoadState rejected.
var ErrBadState = errors.New("predict: malformed state")

// maxCount bounds integral state fields: every integer up to 2^53 is
// exactly representable in a float64.
const maxCount = 1 << 53

// stateDecoder reads a state vector front to back. It keeps the first
// error, and reads after it return zero values.
type stateDecoder struct {
	src []float64
	err error
}

func (d *stateDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadState}, args...)...)
	}
}

// result returns the unread rest of the vector, or the first error.
func (d *stateDecoder) result() ([]float64, error) {
	if d.err != nil {
		return nil, d.err
	}
	return d.src, nil
}

// floats consumes n finite values.
func (d *stateDecoder) floats(n int) []float64 {
	if d.err == nil && n > len(d.src) {
		d.fail("want %d more values, have %d", n, len(d.src))
	}
	if d.err != nil {
		return nil
	}
	vals := d.src[:n]
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.fail("non-finite value %v", v)
			return nil
		}
	}
	d.src = d.src[n:]
	return vals
}

// float consumes one finite value.
func (d *stateDecoder) float() float64 {
	if v := d.floats(1); v != nil {
		return v[0]
	}
	return 0
}

// integer consumes one integral value in [lo, hi].
func (d *stateDecoder) integer(lo, hi int) int {
	v := d.float()
	if d.err == nil && (v != math.Trunc(v) || v < float64(lo) || v > float64(hi)) {
		d.fail("count %v outside the integers [%d, %d]", v, lo, hi)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// count consumes one integral value in [0, hi].
func (d *stateDecoder) count(hi int) int { return d.integer(0, hi) }

// ring consumes a Ring's state into r, requiring positive samples when
// positive is set.
func (d *stateDecoder) ring(r *Ring, positive bool) {
	vals := d.floats(d.count(cap(r.buf)))
	for _, v := range vals {
		if positive && v <= 0 {
			d.fail("non-positive sample %v", v)
		}
	}
	if d.err == nil {
		r.Reset()
		r.buf = append(r.buf, vals...)
	}
}

// inner consumes a wrapped predictor's state.
func (d *stateDecoder) inner(p HB) {
	s, ok := p.(Stateful)
	if !ok {
		d.fail("%s has no serializable state", p.Name())
	}
	if d.err == nil {
		d.src, d.err = s.LoadState(d.src)
	}
}

// appendInner appends a wrapped predictor's state. Wrapping a predictor
// without one is a programming error.
func appendInner(dst []float64, p HB) []float64 {
	s, ok := p.(Stateful)
	if !ok {
		panic("predict: " + p.Name() + " has no serializable state")
	}
	return s.AppendState(dst)
}

package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMedian runs fn n times and returns the median wall time.
func timeMedian(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

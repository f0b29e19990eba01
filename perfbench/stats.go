package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// windowedQuantile splits xs, in arrival order, into consecutive windows
// that each hold at least 20 samples beyond quantile tail, and returns the
// median over windows of each window's q-quantile. A burst that lands in
// one window (a collection cycle, a noisy neighbour) then moves the result
// by one window's worth, not by its share of the whole tail. With fewer
// than two windows' worth of samples it is the plain q-quantile.
func windowedQuantile(xs []float64, q, tail float64) float64 {
	size := int(math.Ceil(20 / (1 - tail)))
	if len(xs) < 2*size {
		return quantile(xs, q)
	}
	var per []float64
	for lo := 0; lo+size <= len(xs); lo += size {
		hi := lo + size
		if len(xs)-hi < size {
			hi = len(xs)
		}
		per = append(per, quantile(xs[lo:hi], q))
	}
	return quantile(per, 0.50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

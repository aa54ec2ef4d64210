package main

import (
	"math"
	"sort"
	"time"
)

// sample is one run's observations of a timing, kept raw so that the
// percentiles are computed once over the whole run.
type sample []float64

func (s *sample) add(v float64)          { *s = append(*s, v) }
func (s *sample) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile interpolates linearly between the closest ranks of the
// sorted values (p in [0,1]); NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailSupported reports whether percentile p of n samples has at least
// ten samples beyond it, the condition under which a tail percentile is
// reported at all.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9 // 100*(1-0.9) rounds below 10
}

// median of unsorted values.
func median(vs []float64) float64 { return percentile(sample(vs).sorted(), 0.5) }

// quartiles returns the first, second and third quartile of vs by the
// "exclusive" method of Python's statistics.quantiles(vs, n=4), which is
// how steadiness is judged. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64, ok bool) {
	data := sample(vs).sorted()
	ld := len(data)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var res [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		res[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return res[0], res[1], res[2], true
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

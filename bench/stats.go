package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the driver applies to a set of runs. Fewer than two samples have
// no quartiles: both are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median: the steadiness figure every bound is judged against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// sample is a metric measured several times inside one run.
type sample []float64

// value condenses a sample into its median with the count and spread
// behind it.
func (s sample) value() Value {
	return Value{Value: median(s), N: len(s), Spread: spread(s)}
}

// A busy host mostly adds time to a repetition: on the 2-core
// sandbox the medians of whole runs moved 5-9% with the neighbours'
// load while the least disturbed repetitions stayed within 2%. The
// end-to-end times and rates therefore report the quiet quartile of
// their samples, not the middle one: the first quartile of a time, the
// third quartile of a rate.

// quietHigh condenses a sample of rates into its third quartile.
func (s sample) quietHigh() Value {
	_, q3 := quartiles(s)
	return Value{Value: q3, N: len(s), Spread: spread(s)}
}

// quietLow condenses a sample of costs into its first quartile.
func (s sample) quietLow() Value {
	q1, _ := quartiles(s)
	return Value{Value: q1, N: len(s), Spread: spread(s)}
}

// restated is v given again under another metric's name: the same
// samples, converted to that metric's unit.
func (v Value) restated(of string, converted float64) Value {
	v.Value, v.AliasOf = converted, of
	return v
}

// in is v with its unit set (the declared metrics get theirs from the
// declaration).
func (v Value) in(unit string) Value {
	v.Unit = unit
	return v
}

// single is a metric measured once (a count, a ratio of two medians).
func single(v float64) Value {
	return Value{Value: v, N: 1}
}

// ratio returns a/b, or 0 when b is 0 (the layer below was not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled is value with the median converted to another unit.
func (s sample) scaled(factor float64) Value {
	v := s.value()
	v.Value *= factor
	return v
}

package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so
// a spread computed here is the spread the acceptance driver computes. Fewer
// than two values have no spread: all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	s := sorted(v)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range of v as a share of its median: the
// figure each end-to-end metric must keep below its bound.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice, 0 when it is empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// worsening is how much worse cur is than base, as a share of base: positive
// means worse in the metric's own direction ("lower" or "higher" is better).
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// Verdicts of a base-versus-current comparison of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload against its bound.
// The medians decide better / within / worse; the verdict is unresolved when
// the runs' own inter-quartile ranges are wider than the bound, unless every
// current run reads better than every base run (the choosing-metrics rule:
// a spread wider than the bound cannot show "unchanged").
func judge(base, cur []float64, better string, bound float64) (verdict string, worse float64) {
	worse = worsening(median(base), median(cur), better)
	if spread(base) > bound || spread(cur) > bound {
		if !allBetter(base, cur, better) {
			return verdictUnresolved, worse
		}
	}
	switch {
	case worse > bound:
		return verdictWorse, worse
	case worse < -bound:
		return verdictBetter, worse
	}
	return verdictWithin, worse
}

// allBetter reports whether every value of cur beats every value of base.
func allBetter(base, cur []float64, better string) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	b, c := sorted(base), sorted(cur)
	if better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

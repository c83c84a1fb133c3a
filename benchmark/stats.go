package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact q-quantile order statistic (nearest rank)
// of the attempted ops: ok holds the successful ops' values and failed
// ops count as +Inf, so a failure can only push a percentile up. It
// returns 0 when nothing was attempted.
func percentile(ok []float64, failed int, q float64) float64 {
	n := len(ok) + failed
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	if rank >= len(ok) {
		return math.Inf(1)
	}
	s := append([]float64(nil), ok...)
	sort.Float64s(s)
	return s[rank]
}

// median is the middle value (the mean of the two middle values for an
// even count), 0 for no values — Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method). With fewer than two values both quartiles are the value
// itself, or 0.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// interval is a closed time interval [start, end].
type interval struct{ start, end time.Time }

// covered returns how much of within the union of ivs covers. Self time
// is a span's duration minus this union over its child spans.
func covered(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(within.start) {
			iv.start = within.start
		}
		if iv.end.After(within.end) {
			iv.end = within.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

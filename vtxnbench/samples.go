package main

import (
	"math"
	"sort"
	"time"
)

// lat collects one operation kind's latencies, in nanoseconds. Each client
// owns its own lat values; the run merges them after the clients return.
type lat struct {
	ns []int64
}

func (l *lat) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

func (l *lat) merge(o *lat) { l.ns = append(l.ns, o.ns...) }

func (l *lat) n() int { return len(l.ns) }

// quantile returns the q-quantile in microseconds (nearest rank on the
// sorted samples), or NaN when there are no samples.
func (l *lat) quantile(q float64) float64 {
	if len(l.ns) == 0 {
		return math.NaN()
	}
	if !sort.SliceIsSorted(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] }) {
		sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	}
	i := int(math.Ceil(q*float64(len(l.ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(l.ns[i]) / 1e3
}

// median returns the median of xs (NaN when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// midmean is the mean of the middle half of xs (the interquartile mean), or
// NaN when xs is empty; xs is reordered. Unlike the median it does not jump
// between the modes of a two-humped sample, and unlike the mean it ignores
// the outer quarters.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

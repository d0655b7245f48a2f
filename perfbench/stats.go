package main

import (
	"math"
	"sort"

	"isrl/internal/obs"
)

// tailSamples is how many samples must lie beyond a reported percentile.
// With fewer, the percentile would be set by a handful of outliers, so the
// reported tail level drops until it has that many behind it.
const tailSamples = 10

// quantile is one reported percentile: the level actually used, its value
// and the sample count it was drawn from.
type quantile struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// rank returns the nearest-rank q-quantile of sorted values. The small
// slack keeps q·n that should be whole (0.99·1000) from rounding up a rank.
func rank(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// median is the nearest-rank 0.5-quantile; zero with no samples.
func median(values []float64) quantile {
	if len(values) == 0 {
		return quantile{Q: 0.5}
	}
	s := sortedCopy(values)
	return quantile{Q: 0.5, Value: rank(s, 0.5), N: len(s)}
}

// tail reports the want-quantile, or, when fewer than tailSamples samples
// would lie beyond it, the highest quantile that still has tailSamples
// beyond it (never below the median).
func tail(values []float64, want float64) quantile {
	n := len(values)
	if n == 0 {
		return quantile{Q: want}
	}
	q := tailLevel(n, want)
	s := sortedCopy(values)
	return quantile{Q: q, Value: rank(s, q), N: n}
}

// tailLevel is the quantile level the tail rule allows for n samples.
func tailLevel(n int, want float64) float64 {
	q := want
	if limit := 1 - float64(tailSamples)/float64(n); limit < q {
		q = limit
	}
	return max(q, 0.5)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range in nanoseconds since the run began.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime returns how much of parent no child covers: the parent's
// duration minus the union of the children clipped to it. Overlapping
// children are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// snapshot is a copy of the process-wide registry's counters and
// histograms at one instant.
type snapshot struct {
	counters map[string]int64
	hists    map[string]obs.HistogramSnapshot
}

// takeSnapshot reads the named counters and histograms from reg.
func takeSnapshot(reg *obs.Registry, counters, hists []string) snapshot {
	s := snapshot{counters: map[string]int64{}, hists: map[string]obs.HistogramSnapshot{}}
	for _, name := range counters {
		s.counters[name] = reg.Counter(name).Value()
	}
	for _, name := range hists {
		s.hists[name] = reg.Histogram(name, obs.LatencyBuckets()).Snapshot()
	}
	return s
}

// window is the change in the registry between two snapshots.
type window struct{ before, after snapshot }

// count is the counter's increase over the window.
func (w window) count(name string) int64 {
	return w.after.counters[name] - w.before.counters[name]
}

// sum is the increase of the histogram's sum over the window.
func (w window) sum(name string) float64 {
	return w.after.hists[name].Sum - w.before.hists[name].Sum
}

// histTail applies the tail rule to the observations the histogram took
// during the window. bounds are the histogram's bucket upper bounds; the
// value is interpolated linearly inside the bucket that holds the quantile,
// the same estimate obs.HistogramSnapshot.Quantile makes.
func (w window) histTail(name string, bounds []float64, want float64) quantile {
	counts := make([]int64, len(bounds)+1) // last slot: above every bound
	slot := func(le float64) int {
		if math.IsInf(le, 1) {
			return len(bounds)
		}
		return sort.SearchFloat64s(bounds, le)
	}
	for _, b := range w.after.hists[name].Buckets {
		counts[slot(b.Le)] += b.Count
	}
	for _, b := range w.before.hists[name].Buckets {
		counts[slot(b.Le)] -= b.Count
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return quantile{Q: want}
	}
	q := tailLevel(int(n), want)
	target := q * float64(n)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lower, upper := 0.0, w.after.hists[name].Max
			if i > 0 {
				lower = bounds[i-1]
			}
			if i < len(bounds) && bounds[i] < upper {
				upper = bounds[i]
			}
			if upper < lower {
				upper = lower
			}
			return quantile{Q: q, Value: lower + (target-cum)/float64(c)*(upper-lower), N: int(n)}
		}
		cum += float64(c)
	}
	return quantile{Q: q, Value: w.after.hists[name].Max, N: int(n)}
}

// ratio divides, returning 0 for an empty base so a layer a workload never
// touches reads as zero work rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

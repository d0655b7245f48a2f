// Package dataset provides the data substrate of the reproduction: the
// synthetic generators used by the paper (anti-correlated, correlated, and
// independent distributions in the style of the Börzsönyi skyline-operator
// generator), skyline preprocessing (the paper evaluates on skyline points
// only), (0,1] normalization, CSV I/O, and synthetic stand-ins for the
// paper's two real Kaggle datasets (Car and Player) built to match their
// size, dimensionality and correlation structure — see DESIGN.md §3.
package dataset

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"isrl/internal/par"
	"isrl/internal/vec"
)

// Dataset is a set of tuples, each a point in (0,1]^d where larger values
// are preferred (the paper's normalization).
type Dataset struct {
	Name   string
	Points [][]float64
	Attrs  []string // optional attribute names, len == Dim when present
}

// Dim returns the dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return len(d.Points) }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, Attrs: append([]string(nil), d.Attrs...)}
	c.Points = make([][]float64, len(d.Points))
	for i, p := range d.Points {
		c.Points[i] = vec.Clone(p)
	}
	return c
}

// Fingerprint hashes the exact float bits of every tuple (FNV-1a over
// shape + IEEE-754 words). Two datasets share a fingerprint iff every
// dot-product an algorithm can compute over them is bit-identical — the
// precondition for replaying a journaled answer trace against "the same"
// dataset after a restart.
func (d *Dataset) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(d.Len()))
	mix(uint64(d.Dim()))
	for _, p := range d.Points {
		for _, v := range p {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// Validate checks the dataset invariants: rectangular shape and all values
// in (0,1].
func (d *Dataset) Validate() error {
	dim := d.Dim()
	for i, p := range d.Points {
		if len(p) != dim {
			return fmt.Errorf("dataset %q: point %d has %d attrs, want %d", d.Name, i, len(p), dim)
		}
		for j, v := range p {
			if !(v > 0 && v <= 1) || math.IsNaN(v) {
				return fmt.Errorf("dataset %q: point %d attr %d = %v outside (0,1]", d.Name, i, j, v)
			}
		}
	}
	return nil
}

// Normalize rescales every attribute to (0,1] by dividing by the column
// maximum after shifting the column minimum to a small positive floor. It
// returns the dataset for chaining. Columns with a single value map to 1.
func (d *Dataset) Normalize() *Dataset {
	dim := d.Dim()
	if dim == 0 {
		return d
	}
	const floor = 1e-6
	for j := 0; j < dim; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range d.Points {
			if p[j] < lo {
				lo = p[j]
			}
			if p[j] > hi {
				hi = p[j]
			}
		}
		span := hi - lo
		for _, p := range d.Points {
			if span == 0 {
				p[j] = 1
				continue
			}
			p[j] = floor + (1-floor)*(p[j]-lo)/span
		}
	}
	return d
}

// Dominates reports whether a dominates b: a ≥ b on every attribute and
// a > b on at least one (larger preferred).
func Dominates(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strictly = true
		}
	}
	return strictly
}

// Skyline returns the dataset restricted to its skyline — the points not
// dominated by any other point. These are exactly the tuples that can be
// top-1 under some non-negative utility vector, the preprocessing every
// compared algorithm applies.
//
// The core is block-nested-loop over points presorted by attribute sum, so
// a point can only be dominated by an earlier one. Above parallelThreshold
// points the work is partitioned across CPUs: local skylines are computed
// per chunk concurrently, then merged with a final pass — the standard
// divide-and-conquer trick, which keeps the paper's n = 100k–1M workloads
// tractable.
func (d *Dataset) Skyline() *Dataset {
	pts := d.Points
	if len(pts) > parallelThreshold {
		pts = parallelLocalSkylines(pts)
	}
	sky := skylineBNL(pts)
	return &Dataset{Name: d.Name + "-skyline", Points: sky, Attrs: append([]string(nil), d.Attrs...)}
}

const parallelThreshold = 20000

// skylineBNL is sorted block-nested-loop skyline over the given points.
func skylineBNL(pts [][]float64) [][]float64 {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sums := make([]float64, len(pts))
	for i, p := range pts {
		sums[i] = vec.Sum(p)
	}
	sort.Slice(idx, func(a, b int) bool { return sums[idx[a]] > sums[idx[b]] })

	var sky [][]float64
	for _, i := range idx {
		p := pts[i]
		dominated := false
		for _, s := range sky {
			if Dominates(s, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	return sky
}

// parallelLocalSkylines reduces pts to the union of per-chunk skylines
// computed concurrently. Any globally dominated point is dominated within
// its own chunk or survives into the final merge, so correctness is
// preserved.
func parallelLocalSkylines(pts [][]float64) [][]float64 {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		return pts
	}
	chunk := (len(pts) + workers - 1) / workers
	locals := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(pts) {
			break
		}
		hi := lo + chunk
		if hi > len(pts) {
			hi = len(pts)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			locals[w] = skylineBNL(pts[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	var merged [][]float64
	for _, l := range locals {
		merged = append(merged, l...)
	}
	return merged
}

// TopPoint returns the index of the point with the highest utility w.r.t. u.
func (d *Dataset) TopPoint(u []float64) int {
	best, bi := math.Inf(-1), -1
	for i, p := range d.Points {
		if s := vec.Dot(u, p); s > best {
			best, bi = s, i
		}
	}
	return bi
}

// TopPoints is TopPoint for a batch of utility vectors, fanned out across
// the worker pool with one task per vector; slot i of the result depends
// only on us[i], so the output is deterministic under any parallelism.
func (d *Dataset) TopPoints(us [][]float64, dst []int) []int {
	if len(dst) != len(us) {
		dst = make([]int, len(us))
	}
	par.Do(len(us), func(i int) {
		dst[i] = d.TopPoint(us[i])
	})
	return dst
}

// MaxUtility returns max over points of u·p.
func (d *Dataset) MaxUtility(u []float64) float64 {
	return vec.Dot(u, d.Points[d.TopPoint(u)])
}

// RegretRatio returns the paper's regret ratio of point q over d w.r.t. u:
// (max_p u·p − u·q) / max_p u·p.
func (d *Dataset) RegretRatio(q, u []float64) float64 {
	m := d.MaxUtility(u)
	if m <= 0 {
		return 0
	}
	return (m - vec.Dot(u, q)) / m
}

package geom

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// testPoly builds a d-dimensional utility range narrowed by a few random
// preference halfspaces, mirroring mid-interaction state.
func testPoly(t *testing.T, d int, seed int64) *Polytope {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewPolytope(d)
	for k := 0; k < d+2; k++ {
		pi := make([]float64, d)
		pj := make([]float64, d)
		for i := 0; i < d; i++ {
			pi[i] = rng.Float64()
			pj[i] = rng.Float64()
		}
		h := NewHalfspace(pi, pj)
		q := p.Clone()
		q.Add(h)
		if !q.IsEmpty() {
			p.Add(h)
		}
	}
	if p.IsEmpty() {
		t.Fatal("test polytope is empty")
	}
	return p
}

// floatsHash is FNV-1a over the IEEE-754 bits of every coordinate in row
// order, so it tells apart −0 and +0 and any reordering of rows.
func floatsHash(rows [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, x := range r {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// degeneratePoly cuts the d=3 simplex with three hyperplanes through one
// point p0, each oriented to keep the centroid inside, so p0 is a vertex
// that three constraint subsets solve to with different rounding.
func degeneratePoly(t *testing.T) *Polytope {
	t.Helper()
	p0 := []float64{0.5, 0.3, 0.2}
	q := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	rng := rand.New(rand.NewSource(41))
	p := NewPolytope(3)
	for k := 0; k < 3; k++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		var wp, pp, wq float64
		for i := range w {
			wp += w[i] * p0[i]
			pp += p0[i] * p0[i]
		}
		for i := range w {
			w[i] -= wp / pp * p0[i]
			wq += w[i] * q[i]
		}
		if wq < 0 {
			for i := range w {
				w[i] = -w[i]
			}
		}
		p.Add(Halfspace{Normal: w})
	}
	return p
}

// A seeded Sample is pinned bit for bit: any change to how the chains are
// seeded, split or walked changes the hash. n=41 does not divide into the
// chains evenly, so it also pins which chains take the extra points.
func TestSampleGolden(t *testing.T) {
	for _, c := range []struct {
		d, n int
		hash uint64
	}{{3, 40, 0xffada63c7222f547}, {5, 40, 0xf01e0e7f776bc260}, {3, 41, 0x82e373799cfd476}} {
		pts, err := testPoly(t, c.d, 21).Sample(rand.New(rand.NewSource(22)), c.n, SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != c.n {
			t.Fatalf("d=%d: got %d points, want %d", c.d, len(pts), c.n)
		}
		if got := floatsHash(pts); got != c.hash {
			t.Fatalf("d=%d n=%d: sample hash %#x, want %#x", c.d, c.n, got, c.hash)
		}
	}
}

// The vertex lists are pinned bit for bit. Enumeration order decides which
// of several near-equal solutions represents a vertex, so on the degenerate
// polytope a change to that order shows up here.
func TestVerticesGolden(t *testing.T) {
	for _, c := range []struct {
		d, n int
		hash uint64
		poly *Polytope
	}{
		{2, 2, 0x352b1ae6e4642ea, testPoly(t, 2, 31)},
		{3, 5, 0x8ff4ba33837650f7, testPoly(t, 3, 31)},
		{4, 6, 0xf79fb0c292f6b8fa, testPoly(t, 4, 31)},
		{3, 4, 0x54832da27fa688ef, degeneratePoly(t)},
	} {
		vs, err := c.poly.Vertices()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != c.n {
			t.Fatalf("d=%d: %d vertices, want %d", c.d, len(vs), c.n)
		}
		if got := floatsHash(vs); got != c.hash {
			t.Fatalf("d=%d: vertex hash %#x, want %#x: %v", c.d, got, c.hash, vs)
		}
	}
}

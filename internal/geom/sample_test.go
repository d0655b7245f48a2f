package geom

import (
	"math/rand"
	"runtime"
	"testing"
)

// freshStreamSample is SampleCtx's chain decomposition with every chain
// driven by a freshly constructed rand.New(rand.NewSource(seed)) stream, the
// generators the pool stands in for.
func freshStreamSample(t *testing.T, p *Polytope, rng *rand.Rand, n int) [][]float64 {
	t.Helper()
	ib, err := p.InnerBall()
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dim
	opts := SampleOptions{BurnIn: 5 * d, Thin: d}
	chains := min(defaultChains, n)
	streams := make([]*rand.Rand, chains)
	for c := range streams {
		streams[c] = rand.New(rand.NewSource(rng.Int63()))
	}
	out := make([][]float64, n)
	for k := range out {
		out[k] = make([]float64, d)
	}
	lo := 0
	for c, r := range streams {
		q := n / chains
		if c < n%chains {
			q++
		}
		p.runChain(r, ib.Center, opts, out[lo:lo+q])
		lo += q
	}
	return out
}

// Pooled, reseeded chain generators must reproduce the fresh-source streams
// bit for bit, whether the pool was just emptied by GC (new generators) or
// holds generators advanced by an earlier call.
func TestSamplePooledStreamsMatchFresh(t *testing.T) {
	for _, d := range []int{3, 4} {
		p := NewPolytope(d)
		rng := rand.New(rand.NewSource(int64(d)))
		for k := 0; k < 3; k++ {
			p.Add(NewHalfspace(SampleSimplex(rng, d), SampleSimplex(rng, d)))
		}
		for _, n := range []int{2, 7, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				want := freshStreamSample(t, p, rand.New(rand.NewSource(seed)), n)
				for _, warm := range []bool{false, true} {
					if !warm {
						runtime.GC()
						runtime.GC() // a second cycle also clears the pool's victim cache
					}
					got, err := p.Sample(rand.New(rand.NewSource(seed)), n, SampleOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for k := range want {
						for i := range want[k] {
							if got[k][i] != want[k][i] {
								t.Fatalf("d=%d n=%d seed %d warm=%v: sample %d = %v, fresh streams give %v",
									d, n, seed, warm, k, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

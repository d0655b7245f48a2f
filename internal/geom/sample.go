package geom

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"isrl/internal/fault"
	"isrl/internal/par"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// SampleSimplex draws one utility vector uniformly from the probability
// simplex using the standard exponential-spacings construction.
func SampleSimplex(rng *rand.Rand, d int) []float64 {
	u := make([]float64, d)
	var s float64
	for i := range u {
		u[i] = rng.ExpFloat64()
		s += u[i]
	}
	for i := range u {
		u[i] /= s
	}
	return u
}

// SampleOptions tunes hit-and-run sampling inside a utility range.
type SampleOptions struct {
	BurnIn int // steps discarded before the first sample (default 5·d)
	Thin   int // steps between retained samples (default d)
	Chains int // independent chains run in parallel (default 4, capped at n)

	// Start, when non-nil and still inside R, seeds every chain from this
	// point and skips the inner-ball LP entirely — the cross-round warm
	// start for callers that already know an interior point (a previously
	// computed Chebyshev center). A nil or no-longer-contained Start falls
	// back to solving for the ball center as before. Note the fallback also
	// restores the empty-interior error; a caller-provided Start bypasses
	// that check.
	Start []float64
}

// defaultChains is the number of independent hit-and-run chains Sample
// decomposes into. It is a fixed constant — NOT the worker count — so a
// seeded run draws the exact same points whether the chains execute on one
// goroutine or many.
const defaultChains = 4

// chainRNGs recycles SampleCtx's per-chain generators. Seed fully resets a
// rand.Rand over a math/rand source, so a pooled, reseeded generator yields
// exactly the stream rand.New(rand.NewSource(seed)) would, without
// allocating a fresh ~5 KB source per chain per call.
var chainRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Sample draws n points approximately uniformly from R with hit-and-run,
// walking inside the affine subspace Σu = 1. The work is split across
// independent chains (SampleOptions.Chains), each starting at the inner
// ball center with its own RNG stream seeded in chain order from rng;
// chain c writes its quota into a fixed slice range, so the output is a
// deterministic function of (rng state, n, opts) regardless of how many
// workers execute the chains. It fails when R is empty or has no interior.
//
// Hit-and-run is the workhorse behind the paper's Lemma-5 sampling step: the
// number of sample vectors falling inside a terminal polyhedron tracks its
// volume fraction.
func (p *Polytope) Sample(rng *rand.Rand, n int, opts SampleOptions) ([][]float64, error) {
	return p.SampleCtx(context.Background(), rng, n, opts)
}

// SampleCtx is Sample with tracing: the whole draw — inner-ball LP plus the
// chain fan-out — is timed as a "geom.sample" span annotated with the point
// and chain counts.
func (p *Polytope) SampleCtx(ctx context.Context, rng *rand.Rand, n int, opts SampleOptions) ([][]float64, error) {
	ctx, sp := trace.Start(ctx, "geom.sample")
	defer sp.End()
	start := time.Now()
	defer func() { sampleMS.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()
	sampleCalls.Inc()
	samplePoints.Add(int64(n))
	if err := fault.Hit(fault.PointSample); err != nil {
		return nil, fmt.Errorf("geom: sample: %w", err)
	}
	d := p.Dim
	from := opts.Start
	if len(from) != d || !p.Contains(from, 1e-7) {
		ib, err := p.InnerBallCtx(ctx)
		if err != nil {
			return nil, err
		}
		if ib.Radius <= 0 {
			return nil, fmt.Errorf("geom: sample: polytope has empty interior (radius %g)", ib.Radius)
		}
		from = ib.Center
	}
	if opts.BurnIn == 0 {
		opts.BurnIn = 5 * d
	}
	if opts.Thin == 0 {
		opts.Thin = d
	}
	if opts.Chains == 0 {
		opts.Chains = defaultChains
	}
	chains := opts.Chains
	if chains > n {
		chains = n
	}
	if n == 0 {
		return nil, nil
	}
	// Per-chain RNG streams, seeded in chain order from the caller's rng.
	streams := make([]*rand.Rand, chains)
	for c := range streams {
		streams[c] = chainRNGs.Get().(*rand.Rand)
		streams[c].Seed(rng.Int63())
	}
	defer func() {
		for _, r := range streams {
			chainRNGs.Put(r)
		}
	}()
	// One flat backing array instead of n row allocations; chains fill
	// disjoint pre-cut rows, so sharing it is race-free.
	out := make([][]float64, n)
	flat := make([]float64, n*d)
	for k := range out {
		out[k] = flat[k*d : (k+1)*d : (k+1)*d]
	}
	base, extra := n/chains, n%chains
	offset := make([]int, chains+1)
	for c := 0; c < chains; c++ {
		q := base
		if c < extra {
			q++
		}
		offset[c+1] = offset[c] + q
	}
	if sp != nil {
		sp.SetInt("points", int64(n))
		sp.SetInt("chains", int64(chains))
	}
	par.DoCtx(ctx, chains, func(c int) {
		p.runChain(streams[c], from, opts, out[offset[c]:offset[c+1]])
	})
	return out, nil
}

// runChain walks one hit-and-run chain from start, filling every
// pre-allocated slot of out with a retained sample. It touches only
// read-only polytope state and its own buffers, so chains may run
// concurrently.
func (p *Polytope) runChain(rng *rand.Rand, start []float64, opts SampleOptions, out [][]float64) {
	cur := vec.Clone(start)
	dir := make([]float64, len(start))
	steps := opts.BurnIn + len(out)*opts.Thin
	k := 0
	for s := 0; s < steps; s++ {
		p.randomZeroSumDir(rng, dir)
		lo, hi, ok := p.chord(cur, dir)
		if !ok {
			// Numerical corner: restart from the interior start point.
			copy(cur, start)
			continue
		}
		t := lo + rng.Float64()*(hi-lo)
		vec.AddScaled(cur, cur, t, dir)
		clampSimplex(cur)
		if s >= opts.BurnIn && (s-opts.BurnIn)%opts.Thin == opts.Thin-1 {
			copy(out[k], cur)
			k++
		}
	}
	// The restart branch skips retention slots; backfill any misses with
	// the last position so every slot is a valid interior point.
	for ; k < len(out); k++ {
		copy(out[k], cur)
	}
}

// randomZeroSumDir fills dir with a unit Gaussian direction projected onto
// the zero-sum hyperplane (tangent space of Σu = 1).
func (p *Polytope) randomZeroSumDir(rng *rand.Rand, dir []float64) {
	d := len(dir)
	for {
		var mean float64
		for i := range dir {
			dir[i] = rng.NormFloat64()
			mean += dir[i]
		}
		mean /= float64(d)
		for i := range dir {
			dir[i] -= mean
		}
		if vec.Normalize(dir) > 1e-12 {
			return
		}
	}
}

// chord intersects the line cur + t·dir with R, returning the feasible
// t-interval. ok is false when the interval is empty or degenerate.
func (p *Polytope) chord(cur, dir []float64) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	clip := func(num, den float64) bool {
		// Constraint: num + t·den ≥ 0.
		const tiny = 1e-14
		if den > tiny {
			if t := -num / den; t > lo {
				lo = t
			}
		} else if den < -tiny {
			if t := -num / den; t < hi {
				hi = t
			}
		} else if num < -1e-10 {
			return false
		}
		return true
	}
	for i := 0; i < p.Dim; i++ { // uᵢ ≥ 0
		if !clip(cur[i], dir[i]) {
			return 0, 0, false
		}
	}
	for _, h := range p.Halfspaces {
		if !clip(vec.Dot(h.Normal, cur), vec.Dot(h.Normal, dir)) {
			return 0, 0, false
		}
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// clampSimplex repairs tiny numerical drift: negatives are zeroed and the
// vector is renormalized to sum 1.
func clampSimplex(u []float64) {
	var s float64
	for i := range u {
		if u[i] < 0 {
			u[i] = 0
		}
		s += u[i]
	}
	if s > 0 {
		for i := range u {
			u[i] /= s
		}
	}
}

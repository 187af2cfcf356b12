package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with P(k) ∝ (k+1)^(-alpha) by inverse-CDF
// lookup — exact for any alpha > 0, unlike the stdlib generator which
// requires alpha > 1. The paper uses alpha ∈ {1.1, 1.4, 1.7}.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with the given skew. alpha = 0
// degenerates to the uniform distribution.
func NewZipf(alpha float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -alpha)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// zipfMemo returns a function that gives the Zipf over n ranks with the
// given skew, building each n's CDF once: a Zipf is read-only, so every
// draw over n ranks can share one, and a workload that draws over graphs
// or pools of a few sizes computes a few CDFs, not one per query.
func zipfMemo(alpha float64) func(n int) *Zipf {
	byN := make(map[int]*Zipf)
	return func(n int) *Zipf {
		z := byN[n]
		if z == nil {
			z = NewZipf(alpha, n)
			byN[n] = z
		}
		return z
	}
}

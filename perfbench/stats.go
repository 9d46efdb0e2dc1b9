package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is one or two unlucky samples
// and does not repeat from run to run.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank.
// It refuses when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if tail := n - rank; tail < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)",
			100*p, n, tail, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pairedSelf returns the self time of a call from rounds that each
// timed it (parent) and the one call it wraps (child) back to back: the
// median of the per-round differences parent[i] − child[i]. Pairing
// subtracts numbers taken under the same host load. resolved is false
// when the difference does not stand out of the host's noise: when, if
// the parent had no self time and noise favoured neither side, at least
// as many rounds would have the parent slower than the child with a
// chance of 2 % or more (a one-sided sign test).
func pairedSelf(parent, child []float64) (self float64, resolved bool) {
	n := min(len(parent), len(child))
	if n == 0 {
		return 0, false
	}
	diffs := make([]float64, n)
	positive := 0
	for i := range diffs {
		diffs[i] = parent[i] - child[i]
		if diffs[i] > 0 {
			positive++
		}
	}
	return median(diffs), coinTail(n, positive) < 0.02
}

// coinTail returns the chance that k or more of n fair coin tosses come
// up heads.
func coinTail(n, k int) float64 {
	lgn, _ := math.Lgamma(float64(n + 1))
	var p float64
	for i := max(k, 0); i <= n; i++ {
		lgi, _ := math.Lgamma(float64(i + 1))
		lgr, _ := math.Lgamma(float64(n - i + 1))
		p += math.Exp(lgn - lgi - lgr - float64(n)*math.Ln2)
	}
	return p
}

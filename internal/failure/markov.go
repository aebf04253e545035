package failure

import (
	"errors"
	"fmt"
)

// This file computes the reliability quantities exactly, as mean
// absorption times of continuous-time birth-death Markov chains — a
// third, independent check sitting between the paper's closed-form
// approximations (equations (4)-(6)) and the Monte-Carlo simulation.
//
// State j counts concurrently failed disks. When the layout's sharing
// relation splits the farm into equal cliques of s disks — the C-disk
// clusters of dedicated parity, the G-disk declustering groups of
// declustered parity — reachable states have every failed disk in a
// distinct clique, and from state j a new failure is catastrophic
// exactly when it hits one of the j damaged cliques' s-1 survivors:
//
//	up      a_j = (D - j·s)·λ      (failure in an untouched clique)
//	absorb  c_j = j·(s-1)·λ        (second failure in a damaged clique)
//	down    b_j = j·μ              (a repair completes)
//
// The mean time to absorption T_0 solves the tridiagonal system
// (a_j+b_j+c_j)·T_j − a_j·T_{j+1} − b_j·T_{j−1} = 1.

// MarkovMTTFHours returns the exact mean time to catastrophic failure,
// solving the birth-death chain above. Only a relation of equal cliques
// keeps the chain one-dimensional; intermixed parity's is not one (its
// groups chain adjacent clusters), so use the Monte-Carlo estimator.
func (m Model) MarkovMTTFHours() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	s := m.cliqueSize()
	if s == 0 {
		return 0, fmt.Errorf("failure: the %v sharing relation is not a partition into equal cliques", m.Layout.Placement())
	}
	d := m.disks()
	lambda := 1 / m.MTTFHours
	mu := 1 / m.MTTRHours
	nc := d / s
	// States j = 0..nc (all cliques damaged at j = nc).
	n := nc + 1
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		up := float64(d-j*s) * lambda
		if j == n-1 {
			up = 0 // no untouched clique left
		}
		a[j] = up
		b[j] = float64(j) * mu
		c[j] = float64(j*(s-1)) * lambda
	}
	return solveAbsorption(a, b, c)
}

// cliqueSize returns s when the relation is exactly "in the same run of
// s consecutive drives", as clusters and declustering groups are; 0
// otherwise.
func (m Model) cliqueSize() int {
	d, s := m.disks(), 1
	for b := 1; b < d; b++ {
		if m.Layout.SharesGroup(0, b) {
			s++
		}
	}
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			if m.Layout.SharesGroup(a, b) != (a != b && a/s == b/s) {
				return 0
			}
		}
	}
	return s
}

// MarkovMTTDSHours returns the exact mean time until K disks are down
// concurrently (the degradation-of-service event of equation (6)),
// regardless of placement: a pure birth-death chain on the failed count
// absorbing at K.
func (m Model) MarkovMTTDSHours() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if m.K < 1 {
		return 0, errors.New("failure: degradation needs K >= 1")
	}
	d := m.disks()
	if m.K > d {
		return 0, fmt.Errorf("failure: K=%d exceeds D=%d", m.K, d)
	}
	lambda := 1 / m.MTTFHours
	mu := 1 / m.MTTRHours
	// States j = 0..K-1; from K-1 any further failure absorbs.
	n := m.K
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		rate := float64(d-j) * lambda
		if j == n-1 {
			a[j], c[j] = 0, rate // the K-th failure absorbs
		} else {
			a[j], c[j] = rate, 0
		}
		b[j] = float64(j) * mu
	}
	return solveAbsorption(a, b, c)
}

// solveAbsorption solves (a_j+b_j+c_j)·T_j − a_j·T_{j+1} − b_j·T_{j−1} = 1
// for T_0 with the Thomas algorithm. b_0 must be 0; every state needs a
// path to absorption (some c_j > 0 reachable).
func solveAbsorption(a, b, c []float64) (float64, error) {
	n := len(a)
	if n == 0 {
		return 0, errors.New("failure: empty chain")
	}
	// Forward elimination on the tridiagonal system
	//   diag_j = a_j + b_j + c_j,  upper_j = -a_j,  lower_j = -b_j.
	diag := make([]float64, n)
	rhs := make([]float64, n)
	for j := 0; j < n; j++ {
		diag[j] = a[j] + b[j] + c[j]
		rhs[j] = 1
	}
	for j := 1; j < n; j++ {
		if diag[j-1] == 0 {
			return 0, errors.New("failure: chain has an isolated state (no rates)")
		}
		factor := b[j] / diag[j-1]
		diag[j] -= factor * a[j-1]
		rhs[j] += factor * rhs[j-1]
	}
	// Back substitution.
	t := make([]float64, n)
	if diag[n-1] == 0 {
		return 0, errors.New("failure: chain cannot absorb from its top state")
	}
	t[n-1] = rhs[n-1] / diag[n-1]
	for j := n - 2; j >= 0; j-- {
		if diag[j] == 0 {
			return 0, errors.New("failure: degenerate chain state")
		}
		t[j] = (rhs[j] + a[j]*t[j+1]) / diag[j]
	}
	return t[0], nil
}

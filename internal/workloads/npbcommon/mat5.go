// Package npbcommon holds numerics shared by the NPB CFD pseudo-solvers
// (BT, SP, LU): dense 5×5 block operations for the block-tridiagonal and
// SSOR solvers, scalar banded solvers, and the smooth exact fields used
// to manufacture forcing terms.
package npbcommon

import (
	"fmt"
	"math"
)

// Vec5 is one 5-component cell state (the NPB solution vector).
type Vec5 [5]float64

// Mat5 is a dense 5×5 block in row-major order.
type Mat5 [25]float64

// At returns m[r][c].
func (m *Mat5) At(r, c int) float64 { return m[r*5+c] }

// Set sets m[r][c].
func (m *Mat5) Set(r, c int, v float64) { m[r*5+c] = v }

// Identity5 returns the identity block.
func Identity5() Mat5 {
	var m Mat5
	for i := 0; i < 5; i++ {
		m[i*5+i] = 1
	}
	return m
}

// AddScaled returns a + s*b.
func AddScaled(a, b *Mat5, s float64) Mat5 {
	var out Mat5
	for i := range out {
		out[i] = a[i] + s*b[i]
	}
	return out
}

// MulVec computes m·v, each row summed from zero in column order.
func (m *Mat5) MulVec(v *Vec5) Vec5 {
	var out Vec5
	for r := range out {
		row := (*[5]float64)(m[r*5 : r*5+5])
		s := 0.0
		s += row[0] * v[0]
		s += row[1] * v[1]
		s += row[2] * v[2]
		s += row[3] * v[3]
		s += row[4] * v[4]
		out[r] = s
	}
	return out
}

// Mul computes a·b.
func (a *Mat5) Mul(b *Mat5) Mat5 {
	var out Mat5
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			s := 0.0
			for k := 0; k < 5; k++ {
				s += a[r*5+k] * b[k*5+c]
			}
			out[r*5+c] = s
		}
	}
	return out
}

// Sub computes a - b in place into a.
func (a *Mat5) Sub(b *Mat5) {
	for i := range a {
		a[i] -= b[i]
	}
}

// SubVec computes a - b.
func SubVec(a, b Vec5) Vec5 {
	var out Vec5
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// AddVecScaled computes a + s*b.
func AddVecScaled(a Vec5, b Vec5, s float64) Vec5 {
	var out Vec5
	for i := range out {
		out[i] = a[i] + s*b[i]
	}
	return out
}

// Invert returns m⁻¹ by Gauss-Jordan elimination with partial pivoting.
// It fails on (numerically) singular blocks, which in the solvers means
// a badly conditioned time step.
func (m *Mat5) Invert() (Mat5, error) {
	a := *m
	inv := Identity5()
	for col := 0; col < 5; col++ {
		// Pivot.
		p := col
		best := math.Abs(a[col*5+col])
		for r := col + 1; r < 5; r++ {
			if v := math.Abs(a[r*5+col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-30 {
			return Mat5{}, fmt.Errorf("npbcommon: singular 5x5 block (pivot %g at col %d)", best, col)
		}
		if p != col {
			for c := 0; c < 5; c++ {
				a[col*5+c], a[p*5+c] = a[p*5+c], a[col*5+c]
				inv[col*5+c], inv[p*5+c] = inv[p*5+c], inv[col*5+c]
			}
		}
		// Normalise pivot row.
		d := 1 / a[col*5+col]
		for c := 0; c < 5; c++ {
			a[col*5+c] *= d
			inv[col*5+c] *= d
		}
		// Eliminate.
		for r := 0; r < 5; r++ {
			if r == col {
				continue
			}
			f := a[r*5+col]
			if f == 0 {
				continue
			}
			for c := 0; c < 5; c++ {
				a[r*5+c] -= f * a[col*5+c]
				inv[r*5+c] -= f * inv[col*5+c]
			}
		}
	}
	return inv, nil
}

// BlockTriDiagSolve solves the block-tridiagonal system
//
//	A_i x_{i-1} + B_i x_i + C_i x_{i+1} = d_i ,  i = 0..n-1
//
// in place in d (A_0 and C_{n-1} are ignored) using block Thomas
// elimination. Roughly 600 flops per unknown block — the flop-heavy core
// of the BT benchmark.
func BlockTriDiagSolve(a, b, c []Mat5, d []Vec5) error {
	n := len(d)
	if len(a) != n || len(b) != n || len(c) != n {
		return fmt.Errorf("npbcommon: block system size mismatch (%d,%d,%d,%d)", len(a), len(b), len(c), n)
	}
	if n == 0 {
		return nil
	}
	// Forward elimination: b'_i = b_i - a_i (b'_{i-1})⁻¹ c_{i-1}, and the
	// same transform on d. We store the inverted pivot in b.
	inv, err := b[0].Invert()
	if err != nil {
		return fmt.Errorf("npbcommon: row 0: %w", err)
	}
	b[0] = inv
	for i := 1; i < n; i++ {
		// m = a_i · b'_{i-1}⁻¹
		m := a[i].Mul(&b[i-1])
		mc := m.Mul(&c[i-1])
		b[i].Sub(&mc)
		mv := m.MulVec(&d[i-1])
		d[i] = SubVec(d[i], mv)
		inv, err := b[i].Invert()
		if err != nil {
			return fmt.Errorf("npbcommon: row %d: %w", i, err)
		}
		b[i] = inv
	}
	// Back substitution.
	d[n-1] = b[n-1].MulVec(&d[n-1])
	for i := n - 2; i >= 0; i-- {
		cv := c[i].MulVec(&d[i+1])
		t := SubVec(d[i], cv)
		d[i] = b[i].MulVec(&t)
	}
	return nil
}

// PentaDiagSolveVec is PentaDiagSolve for five independent right-hand
// sides sharing one band matrix: the bands are factored once and the
// elimination multipliers applied to all five components. The SP solver
// uses it because its implicit factor is component-independent — the
// per-component results are identical to five scalar solves at a fifth
// of the factorisation work.
func PentaDiagSolveVec(e, a, d, c, f []float64, rhs []Vec5) error {
	n := len(rhs)
	if len(e) != n || len(a) != n || len(d) != n || len(c) != n || len(f) != n {
		return fmt.Errorf("npbcommon: penta system size mismatch")
	}
	for i := 0; i < n; i++ {
		if i >= 2 {
			if d[i-2] == 0 {
				return fmt.Errorf("npbcommon: zero pivot at row %d", i-2)
			}
			m := e[i] / d[i-2]
			a[i] -= m * c[i-2]
			d[i] -= m * f[i-2]
			subScaled(&rhs[i], m, &rhs[i-2])
		}
		if i >= 1 {
			if d[i-1] == 0 {
				return fmt.Errorf("npbcommon: zero pivot at row %d", i-1)
			}
			m := a[i] / d[i-1]
			d[i] -= m * c[i-1]
			c[i] -= m * f[i-1]
			subScaled(&rhs[i], m, &rhs[i-1])
		}
	}
	for i := n - 1; i >= 0; i-- {
		if d[i] == 0 {
			return fmt.Errorf("npbcommon: zero pivot at row %d", i)
		}
		s := rhs[i]
		if i+1 < n {
			subScaled(&s, c[i], &rhs[i+1])
		}
		if i+2 < n {
			subScaled(&s, f[i], &rhs[i+2])
		}
		r, di := &rhs[i], d[i]
		r[0], r[1], r[2], r[3], r[4] = s[0]/di, s[1]/di, s[2]/di, s[3]/di, s[4]/di
	}
	return nil
}

// subScaled computes r -= m·p component-wise.
func subScaled(r *Vec5, m float64, p *Vec5) {
	r[0] -= m * p[0]
	r[1] -= m * p[1]
	r[2] -= m * p[2]
	r[3] -= m * p[3]
	r[4] -= m * p[4]
}

// PentaDiagSolve solves the scalar penta-diagonal system with bands
// (e, a, d, c, f) — d the main diagonal, a/c the first sub/super
// diagonals, e/f the second — in place in rhs, destroying the bands
// (~40 flops per unknown). It is the reference implementation
// PentaDiagSolveVec (the multi-RHS form SP actually runs) is tested
// against; keep the two eliminations in lock-step.
func PentaDiagSolve(e, a, d, c, f, rhs []float64) error {
	n := len(rhs)
	if len(e) != n || len(a) != n || len(d) != n || len(c) != n || len(f) != n {
		return fmt.Errorf("npbcommon: penta system size mismatch")
	}
	// Forward elimination. After processing, row i has nonzeros only at
	// columns i (d), i+1 (c) and i+2 (f), so eliminating row i's two
	// sub-diagonal entries against the already-processed rows i-2 and
	// i-1 stays within the five bands.
	for i := 0; i < n; i++ {
		if i >= 2 {
			if d[i-2] == 0 {
				return fmt.Errorf("npbcommon: zero pivot at row %d", i-2)
			}
			m := e[i] / d[i-2]
			a[i] -= m * c[i-2]
			d[i] -= m * f[i-2]
			rhs[i] -= m * rhs[i-2]
		}
		if i >= 1 {
			if d[i-1] == 0 {
				return fmt.Errorf("npbcommon: zero pivot at row %d", i-1)
			}
			m := a[i] / d[i-1]
			d[i] -= m * c[i-1]
			c[i] -= m * f[i-1]
			rhs[i] -= m * rhs[i-1]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		if i+1 < n {
			s -= c[i] * rhs[i+1]
		}
		if i+2 < n {
			s -= f[i] * rhs[i+2]
		}
		if d[i] == 0 {
			return fmt.Errorf("npbcommon: zero pivot at row %d", i)
		}
		rhs[i] = s / d[i]
	}
	return nil
}

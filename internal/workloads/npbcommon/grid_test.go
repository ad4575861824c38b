package npbcommon

import (
	"math"
	"testing"
)

// diff4Ref is the fourth-difference operator written per point: stride
// and position picked by dimension, indices clamped at the boundary.
func diff4Ref(g Grid, u []float64, c, i, j, k, dim int) float64 {
	stride, pos := [3]int{1, g.N, g.N * g.N}[dim], [3]int{i, j, k}[dim]
	base := g.Idx(i, j, k)*5 + c
	at := func(o int) float64 {
		return u[base+(clamp(pos+o, 0, g.N-1)-pos)*stride*5]
	}
	return at(-2) - 4*at(-1) + 6*at(0) - 4*at(1) + at(2)
}

// diff2Ref is the second-difference operator written per point.
func diff2Ref(g Grid, u []float64, c, i, j, k, dim int) float64 {
	stride, pos := [3]int{1, g.N, g.N * g.N}[dim], [3]int{i, j, k}[dim]
	base := g.Idx(i, j, k)*5 + c
	at := func(o int) float64 {
		return u[base+(clamp(pos+o, 0, g.N-1)-pos)*stride*5]
	}
	return at(-1) - 2*at(0) + at(1)
}

// TestDifferenceTablesMatchPerPoint checks the table-driven operators
// against the per-point forms bit for bit on every interior point of a
// field with non-trivial values.
func TestDifferenceTablesMatchPerPoint(t *testing.T) {
	g := Grid{N: 9}
	u := make([]float64, g.Cells()*5)
	NewExactField(g).Fill(u)
	for i := range u {
		u[i] += 1e-3 * math.Sin(float64(i))
	}
	tab := NewDiff4Table(g)
	st := g.Strides5()
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				pos := [3]int{i, j, k}
				for c := 0; c < 5; c++ {
					b := g.Idx(i, j, k)*5 + c
					for dim := 0; dim < 3; dim++ {
						got, want := Diff4At(u, b, &tab[dim][pos[dim]]), diff4Ref(g, u, c, i, j, k, dim)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("Diff4 at (%d,%d,%d) c=%d dim=%d: %g, per-point %g", i, j, k, c, dim, got, want)
						}
						got, want = Diff2At(u, b, st[dim]), diff2Ref(g, u, c, i, j, k, dim)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("Diff2 at (%d,%d,%d) c=%d dim=%d: %g, per-point %g", i, j, k, c, dim, got, want)
						}
					}
				}
			}
		}
	}
}

// exactRef is the manufactured solution evaluated per point.
func exactRef(c int, x, y, z float64) float64 {
	fc := float64(c + 1)
	return 2.0 + 0.3*math.Sin(math.Pi*(x+0.1*fc))*math.Cos(math.Pi*(y-0.07*fc))*math.Sin(math.Pi*(z+0.13*fc)) +
		0.1*fc*x*y*z
}

// TestExactFieldMatchesPerPoint checks the tabulated exact field and its
// error norm against the per-point formula bit for bit.
func TestExactFieldMatchesPerPoint(t *testing.T) {
	g := Grid{N: 11}
	ex := NewExactField(g)
	u := make([]float64, g.Cells()*5)
	ex.Fill(u)
	n := float64(g.N - 1)
	sum, cnt := 0.0, 0
	for k := 0; k < g.N; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				for c := 0; c < 5; c++ {
					idx := g.Idx(i, j, k)*5 + c
					want := exactRef(c, float64(i)/n, float64(j)/n, float64(k)/n)
					if math.Float64bits(u[idx]) != math.Float64bits(want) {
						t.Fatalf("exact at (%d,%d,%d) c=%d: %v, per-point %v", i, j, k, c, u[idx], want)
					}
					u[idx] += 1e-3 * float64(c-i+j)
					if g.Interior(i, j, k) {
						d := u[idx] - want
						sum += d * d
						cnt++
					}
				}
			}
		}
	}
	if got, want := ex.ErrNorm(u), math.Sqrt(sum/float64(cnt)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ErrNorm %v, per-point %v", got, want)
	}
}

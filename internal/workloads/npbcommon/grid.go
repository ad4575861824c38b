package npbcommon

import "math"

// Grid is a cubic N³ grid with unit spacing and array-of-structures
// layout for 5-component fields: field[idx(i,j,k)*5 + c].
type Grid struct {
	N int
}

// Idx returns the linear cell index of (i, j, k).
func (g Grid) Idx(i, j, k int) int { return (k*g.N+j)*g.N + i }

// Cells returns the total cell count.
func (g Grid) Cells() int { return g.N * g.N * g.N }

// Interior reports whether (i, j, k) is an interior point (Dirichlet
// boundaries hold the exact solution and are never updated).
func (g Grid) Interior(i, j, k int) bool {
	return i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.N-1
}

// ExactField tabulates the manufactured smooth solution used by the CFD
// pseudo-solvers on an N³ grid: component c at the normalised point
// (x, y, z) = (i, j, k)/(N−1) is
//
//	2 + 0.3·sin(π(x + 0.1·fc))·cos(π(y − 0.07·fc))·sin(π(z + 0.13·fc)) + 0.1·fc·x·y·z
//
// with fc = c+1 (positive everywhere, so 1/u₀ is safe). The separable
// per-axis factors are cached, so the N³ fill and error sweeps evaluate
// 15·N transcendentals instead of 5·N³; every table entry and the
// combining expression repeat the per-point formula's operations on the
// same values in the same order, so the values are bit-identical to
// evaluating it point by point.
type ExactField struct {
	g     Grid
	amp   []float64 // [i*5+c] = 0.3 * Sin(Pi*(x + 0.1*fc))
	cosY  []float64 // [j*5+c] = Cos(Pi*(y - 0.07*fc))
	sinZ  []float64 // [k*5+c] = Sin(Pi*(z + 0.13*fc))
	prodX []float64 // [i*5+c] = 0.1*fc*x
	coord []float64 // [i] = i/(N−1)
}

// NewExactField tabulates the exact solution's factors on grid g.
func NewExactField(g Grid) *ExactField {
	n := float64(g.N - 1)
	ax := &ExactField{
		g:     g,
		amp:   make([]float64, g.N*5),
		cosY:  make([]float64, g.N*5),
		sinZ:  make([]float64, g.N*5),
		prodX: make([]float64, g.N*5),
		coord: make([]float64, g.N),
	}
	for i := 0; i < g.N; i++ {
		v := float64(i) / n
		ax.coord[i] = v
		for c := 0; c < 5; c++ {
			fc := float64(c + 1)
			ax.amp[i*5+c] = 0.3 * math.Sin(math.Pi*(v+0.1*fc))
			ax.cosY[i*5+c] = math.Cos(math.Pi * (v - 0.07*fc))
			ax.sinZ[i*5+c] = math.Sin(math.Pi * (v + 0.13*fc))
			ax.prodX[i*5+c] = 0.1 * fc * v
		}
	}
	return ax
}

// at returns the exact value of component c at cell (i, j, k).
func (ax *ExactField) at(c, i, j, k int) float64 {
	return 2.0 + ax.amp[i*5+c]*ax.cosY[j*5+c]*ax.sinZ[k*5+c] +
		ax.prodX[i*5+c]*ax.coord[j]*ax.coord[k]
}

// Fill writes the exact solution into the 5-component field u.
func (ax *ExactField) Fill(u []float64) {
	g := ax.g
	for k := 0; k < g.N; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				idx := g.Idx(i, j, k) * 5
				for c := 0; c < 5; c++ {
					u[idx+c] = ax.at(c, i, j, k)
				}
			}
		}
	}
}

// Perturb adds amp·sin(w[0]·x)·sin(w[1]·y)·sin(w[2]·z) to every
// component of the interior cells of u, with x, y, z = i, j, k over
// (N−1). The sines are tabulated per axis and the product is formed left
// to right, exactly as evaluating it per cell would.
func Perturb(g Grid, u []float64, amp float64, w [3]float64) {
	n := float64(g.N - 1)
	var tab [3][]float64
	for a := range tab {
		tab[a] = make([]float64, g.N)
		for i := range tab[a] {
			tab[a][i] = math.Sin(w[a] * (float64(i) / n))
		}
	}
	sx, sy, sz := tab[0], tab[1], tab[2]
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				v := amp * sx[i] * sy[j] * sz[k]
				idx := g.Idx(i, j, k) * 5
				for comp := 0; comp < 5; comp++ {
					u[idx+comp] += v
				}
			}
		}
	}
}

// ErrNorm returns the RMS difference between u and the exact solution
// over interior cells.
func (ax *ExactField) ErrNorm(u []float64) float64 {
	g := ax.g
	sum := 0.0
	cnt := 0
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				idx := g.Idx(i, j, k) * 5
				for c := 0; c < 5; c++ {
					d := u[idx+c] - ax.at(c, i, j, k)
					sum += d * d
					cnt++
				}
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(cnt))
}

// LineGeometry returns, for the grid lines along dimension dim of an n³
// grid, the cell index of the first point of line (a, b) and the cell
// stride between consecutive points.
func LineGeometry(n, dim int) (base func(a, b int) int, stride int) {
	switch dim {
	case 0:
		return func(a, b int) int { return (b*n + a) * n }, 1
	case 1:
		return func(a, b int) int { return b*n*n + a }, n
	default:
		return func(a, b int) int { return b*n + a }, n * n
	}
}

// Strides5 returns the element stride of one grid step along each
// dimension of a 5-component field.
func (g Grid) Strides5() [3]int { return [3]int{5, 5 * g.N, 5 * g.N * g.N} }

// Diff2At evaluates the second-difference operator of the 5-component
// field u at element b along the dimension of element stride s. Both
// neighbours must lie inside the grid, which holds at every interior
// point.
func Diff2At(u []float64, b, s int) float64 {
	return u[b-s] - 2*u[b] + u[b+s]
}

// Diff4Table holds, per dimension and axis position, the element offsets
// of the four neighbours (−2, −1, +1, +2) the fourth-difference operator
// (δ²)² reads in a 5-component field, clamped at the boundary (one-sided
// closure). Precomputing them keeps stride selection and clamping out of
// the sweeps.
type Diff4Table [3][][4]int

// NewDiff4Table builds the clamped neighbour offsets of grid g.
func NewDiff4Table(g Grid) Diff4Table {
	var t Diff4Table
	for dim, s5 := range g.Strides5() {
		t[dim] = make([][4]int, g.N)
		for pos := range t[dim] {
			for o, step := range [4]int{-2, -1, 1, 2} {
				t[dim][pos][o] = (clamp(pos+step, 0, g.N-1) - pos) * s5
			}
		}
	}
	return t
}

// Diff4At evaluates (δ²)² of the 5-component field u at element b with
// the neighbour offsets o of the point's position along one dimension.
func Diff4At(u []float64, b int, o *[4]int) float64 {
	return u[b+o[0]] - 4*u[b+o[1]] + 6*u[b] - 4*u[b+o[2]] + u[b+o[3]]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

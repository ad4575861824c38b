// Package fft implements the radix-2 complex FFT used by the k-Wave
// pseudospectral solver: in-place 1-D transforms and 3-D transforms
// applied axis by axis. Only power-of-two lengths are supported, which
// is all k-Wave grids require.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT performs an in-place forward transform of x. The length must be a
// power of two.
func FFT(x []complex128) error {
	p, err := newPlan(len(x))
	if err != nil {
		return err
	}
	p.forward(x, 1)
	return nil
}

// IFFT performs an in-place inverse transform of x (normalised by 1/N).
func IFFT(x []complex128) error {
	p, err := newPlan(len(x))
	if err != nil {
		return err
	}
	p.inverse(x, 1)
	return nil
}

// plan is the precomputed state of an n-point iterative
// decimation-in-time radix-2 transform: the bit-reversal swap pairs and,
// per direction, every stage's twiddle factors. The twiddles of a stage
// come from the same w *= wBase recurrence the butterfly loop would run
// inline, so a planned transform is bit-identical to one that computes
// its twiddles on the fly.
type plan struct {
	n        int
	swaps    []int        // bit-reversal pairs (i, j), i < j, flattened
	fwd, inv []complex128 // the stage of half-size h at [h-1 : 2h-1]
}

func newPlan(n int) (*plan, error) {
	if n == 0 {
		return nil, fmt.Errorf("fft: empty input")
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &plan{n: n, fwd: twiddles(n, -1), inv: twiddles(n, 1)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, i, j)
		}
	}
	return p, nil
}

// twiddles returns the per-stage twiddle factors of an n-point
// transform; sign is -1 for the forward and +1 for the inverse direction.
func twiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, 0, n)
	for size := 2; size <= n; size <<= 1 {
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		w := complex(1, 0)
		for k := 0; k < size>>1; k++ {
			tw = append(tw, w)
			w *= wBase
		}
	}
	return tw
}

// forward transforms the m interleaved lines held in x: point t of line
// l is x[t*m+l]. Every line undergoes exactly the operations a lone
// transform of it would, so batching changes no bits.
func (p *plan) forward(x []complex128, m int) { p.transform(x, m, p.fwd) }

// inverse is forward's inverse, normalised by 1/N.
func (p *plan) inverse(x []complex128, m int) {
	p.transform(x, m, p.inv)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// transform runs the bit-reversal permutation and the butterfly stages
// with the twiddle table tw over m interleaved lines.
func (p *plan) transform(x []complex128, m int, tw []complex128) {
	if m == 1 {
		p.transformLine(x, tw)
		return
	}
	for s := 0; s < len(p.swaps); s += 2 {
		a, b := x[p.swaps[s]*m:][:m], x[p.swaps[s+1]*m:][:m]
		for l := range a {
			a[l], b[l] = b[l], a[l]
		}
	}
	n := p.n
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			for k, wk := range w {
				a := x[(start+k)*m:][:m]
				b := x[(start+k+half)*m:][:m]
				for l := range a {
					t := b[l] * wk
					a[l], b[l] = a[l]+t, a[l]-t
				}
			}
		}
	}
}

// transformLine is transform for a single contiguous line, with the
// same operations in the same order. It skips the batched loop's
// per-butterfly line slicing, which on the 16³ grid makes FFT3 about
// 1.35× faster (BenchmarkFFT3, one thread).
func (p *plan) transformLine(x []complex128, tw []complex128) {
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	n := len(x)
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			a := x[start : start+half]
			b := x[start+half : start+2*half]
			for k, wk := range w {
				t := b[k] * wk
				a[k], b[k] = a[k]+t, a[k]-t
			}
		}
	}
}

// Grid3 is an N³ complex field with helpers for axis-wise transforms.
type Grid3 struct {
	N    int
	Data []complex128

	plan *plan // built on the first FFT3
}

// NewGrid3 allocates an N³ complex grid (N a power of two).
func NewGrid3(n int) (*Grid3, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: grid edge %d is not a power of two >= 2", n)
	}
	return &Grid3{N: n, Data: make([]complex128, n*n*n)}, nil
}

// Idx returns the linear index of (i, j, k).
func (g *Grid3) Idx(i, j, k int) int { return (k*g.N+j)*g.N + i }

// FFT3 transforms the grid along all three axes; inverse selects the
// inverse transform (normalised). Every line is transformed exactly as
// FFT (or IFFT) would transform it in isolation; the strided axes are
// transformed as batches of interleaved lines, with no gather.
func (g *Grid3) FFT3(inverse bool) error {
	n := g.N
	if g.plan == nil {
		p, err := newPlan(n)
		if err != nil {
			return err
		}
		g.plan = p
	}
	tf := g.plan.forward
	if inverse {
		tf = g.plan.inverse
	}
	n2 := n * n
	// Axis 0: each contiguous line on its own.
	for base := 0; base < len(g.Data); base += n {
		tf(g.Data[base:base+n], 1)
	}
	// Axis 1: per k-plane, the n lines along j interleave with stride n.
	for base := 0; base < len(g.Data); base += n2 {
		tf(g.Data[base:base+n2], n)
	}
	// Axis 2: all n² lines along k interleave with stride n².
	tf(g.Data, n2)
	return nil
}

// WaveNumbers returns the angular wavenumbers of an N-point DFT with unit
// spacing, in DFT order: 0, 1, ..., N/2, -(N/2-1), ..., -1 (times 2π/N).
func WaveNumbers(n int) []float64 {
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		m := i
		if i > n/2 {
			m = i - n
		}
		k[i] = 2 * math.Pi * float64(m) / float64(n)
	}
	return k
}

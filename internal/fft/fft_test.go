package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"testing"
	"testing/quick"

	"hmpt/internal/xrand"
)

func TestFFTKnownValues(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a constant is an impulse of height N.
	for i := range x {
		x[i] = 2
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-16) > 1e-12 {
		t.Fatalf("DC bin = %v, want 16", x[0])
	}
	for i := 1; i < len(x); i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	n := 32
	freq := 5
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * float64(freq*i) / float64(n)
		x[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		want := 0.0
		if i == freq {
			want = float64(n)
		}
		if cmplx.Abs(x[i]-complex(want, 0)) > 1e-9 {
			t.Fatalf("bin %d = %v, want %g", i, x[i], want)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 << (3 + rng.Intn(5)) // 8..128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x) != nil || IFFT(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := xrand.New(9)
	n := 64
	x := make([]complex128, n)
	timeE := 0.0
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	freqE := 0.0
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-9*timeE {
		t.Fatalf("Parseval violated: time %g vs freq/N %g", timeE, freqE/float64(n))
	}
}

func TestFFTErrors(t *testing.T) {
	if err := FFT(nil); err == nil {
		t.Error("empty input should fail")
	}
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("non-power-of-two should fail")
	}
	if _, err := NewGrid3(12); err == nil {
		t.Error("non-power-of-two grid should fail")
	}
}

func TestFFT3RoundTrip(t *testing.T) {
	g, err := NewGrid3(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = g.Data[i]
	}
	if err := g.FFT3(false); err != nil {
		t.Fatal(err)
	}
	if err := g.FFT3(true); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("3-D round trip deviates at %d: %v vs %v", i, g.Data[i], orig[i])
		}
	}
}

// TestFFT3SpectralDerivative checks that multiplying by i·k in k-space
// differentiates a plane wave exactly — the core operation of the
// k-Wave solver.
func TestFFT3SpectralDerivative(t *testing.T) {
	n := 16
	g, err := NewGrid3(n)
	if err != nil {
		t.Fatal(err)
	}
	// f(x) = sin(2π·2·x/n) along axis 0; df/dx = (4π/n)cos(...).
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g.Data[g.Idx(i, j, k)] = complex(math.Sin(4*math.Pi*float64(i)/float64(n)), 0)
			}
		}
	}
	if err := g.FFT3(false); err != nil {
		t.Fatal(err)
	}
	ks := WaveNumbers(n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g.Data[g.Idx(i, j, k)] *= complex(0, ks[i])
			}
		}
	}
	if err := g.FFT3(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 4 * math.Pi / float64(n) * math.Cos(4*math.Pi*float64(i)/float64(n))
		got := real(g.Data[g.Idx(i, 3, 5)])
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("derivative at %d: got %g want %g", i, got, want)
		}
	}
}

func TestWaveNumbers(t *testing.T) {
	ks := WaveNumbers(8)
	want := []float64{0, 1, 2, 3, 4, -3, -2, -1}
	for i, w := range want {
		if math.Abs(ks[i]-2*math.Pi*w/8) > 1e-12 {
			t.Fatalf("k[%d] = %g, want %g", i, ks[i], 2*math.Pi*w/8)
		}
	}
}

// unplannedTransform is the transform with its twiddles computed inline
// — one cmplx.Exp per stage and a w *= wBase recurrence per butterfly
// block — the form the planned tables must reproduce bit for bit.
func unplannedTransform(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// unplannedFFT3 transforms g axis by axis, gathering every line through
// Idx and transforming it with unplannedTransform.
func unplannedFFT3(g *Grid3, inverse bool) {
	n := g.N
	line := make([]complex128, n)
	for axis := 0; axis < 3; axis++ {
		for b := 0; b < n; b++ {
			for a := 0; a < n; a++ {
				at := func(t int) int {
					switch axis {
					case 0:
						return g.Idx(t, a, b)
					case 1:
						return g.Idx(a, t, b)
					default:
						return g.Idx(a, b, t)
					}
				}
				for t := range line {
					line[t] = g.Data[at(t)]
				}
				unplannedTransform(line, inverse)
				for t := range line {
					g.Data[at(t)] = line[t]
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestPlannedTransformsBitIdentical pins the planned 1-D and 3-D
// transforms to the unplanned reference bit for bit, in both
// directions, including signed zeros in the input.
func TestPlannedTransformsBitIdentical(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x[0] = complex(math.Copysign(0, -1), 0)
			want := append([]complex128(nil), x...)
			unplannedTransform(want, inverse)
			tf := FFT
			if inverse {
				tf = IFFT
			}
			if err := tf(x); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if !sameBits(x[i], want[i]) {
					t.Fatalf("n=%d inverse=%v: 1-D bin %d = %v, unplanned %v", n, inverse, i, x[i], want[i])
				}
			}
		}
	}
	for _, n := range []int{2, 4, 8, 16} {
		g, err := NewGrid3(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			g.Data[i] = complex(rng.NormFloat64(), 0)
		}
		ref := &Grid3{N: n, Data: append([]complex128(nil), g.Data...)}
		// Forward then inverse on the same grid: the second call reuses
		// the plan the first one built.
		for _, inverse := range []bool{false, true} {
			if err := g.FFT3(inverse); err != nil {
				t.Fatal(err)
			}
			unplannedFFT3(ref, inverse)
			for i := range g.Data {
				if !sameBits(g.Data[i], ref.Data[i]) {
					t.Fatalf("n=%d inverse=%v: FFT3 point %d = %v, unplanned %v", n, inverse, i, g.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// BenchmarkFFT3 measures one forward and one inverse transform of the
// 16³ grid k-Wave's fast configuration runs.
func BenchmarkFFT3(b *testing.B) {
	g, err := NewGrid3(16)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(5)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.FFT3(false); err != nil {
			b.Fatal(err)
		}
		if err := g.FFT3(true); err != nil {
			b.Fatal(err)
		}
	}
}

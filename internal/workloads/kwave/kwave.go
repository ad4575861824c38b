// Package kwave implements the k-Wave ultrasound propagation solver
// analysed in §IV-B (Fig. 15): a first-order pseudospectral (k-space)
// scheme for linear acoustics on a 512³ grid, with spectral gradients
// computed through real 3-D FFTs (internal/fft).
//
// The allocation profile mirrors the real solver: 34 tracked allocations
// of which the 3-D complex FFT work arrays are the individually most
// impactful, while the particle-velocity and density fields each consist
// of three per-axis arrays that §IV-B groups into one allocation group
// per vector field (Options.GroupBy in the experiment spec). The paper's
// headline for k-Wave — more than 3/4 of the data must be in HBM for
// 90 % of the 1.32× speedup — follows from the near-uniform traffic
// density across the field arrays.
package kwave

import (
	"fmt"
	"math"

	"hmpt/internal/fft"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
)

// Physics and calibration constants. The compute ceiling reflects the
// FFT butterflies (vectorised but latency-chained); Table II: 1.32×.
const (
	c0      = 1.0  // sound speed (grid units)
	rho0    = 1.0  // ambient density
	dtCFL   = 0.15 // time step as a fraction of the CFL limit
	vecFrac = 0.60
	fftEff  = 0.085
	memEff  = 0.90
)

// Config parameterises the k-Wave workload.
type Config struct {
	// RealN is the executed grid edge (power of two).
	RealN int
	// PaperN is the represented grid edge (512).
	PaperN int
	// Steps is the number of time steps.
	Steps int
}

// DefaultConfig is the 512³ single-precision configuration at 32³
// executed scale.
func DefaultConfig() Config { return Config{RealN: 32, PaperN: 512, Steps: 5} }

// KWave is the ultrasound solver workload.
type KWave struct {
	Cfg   Config
	scale float64 // simulated bytes per real byte (fp32 paper arrays)

	// 3-D real fields (8 B real backing representing 4 B paper arrays).
	p                *shim.TrackedSlice[float64]
	ux, uy, uz       *shim.TrackedSlice[float64]
	rhox, rhoy, rhoz *shim.TrackedSlice[float64]
	dux, duy, duz    *shim.TrackedSlice[float64]
	kappa            *shim.TrackedSlice[float64]
	c2, rho0Map      *shim.TrackedSlice[float64]
	absorbTau        *shim.TrackedSlice[float64]
	absorbEta        *shim.TrackedSlice[float64]

	// 3-D complex FFT work arrays.
	workC1, workC2 *shim.TrackedSlice[complex128]

	// Small 1-D operators (wavenumbers, staggered-grid shifts, PML).
	ddx, ddy, ddz          *shim.TrackedSlice[complex128]
	sgxp, sgyp, sgzp       *shim.TrackedSlice[complex128]
	sgxn, sgyn, sgzn       *shim.TrackedSlice[complex128]
	pmlx, pmly, pmlz       *shim.TrackedSlice[float64]
	srcP, srcMask, sensorD *shim.TrackedSlice[float64]

	grid    *fft.Grid3
	axisFac []complex128 // divU scratch: dd[t]·sg[t] of the current axis
	ks      []float64
	env     *workloads.Env
	energy  []float64
	stepped bool
}

// New returns a k-Wave workload with the default configuration.
func New() *KWave { return &KWave{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("kwave", "k-Wave pseudospectral ultrasound solver, 512³ grid (9.79 GB, 34 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (w *KWave) Name() string { return "kwave" }

// Setup implements workloads.Workload: allocate the 34 tracked arrays
// and place a Gaussian pressure pulse at the grid centre.
func (w *KWave) Setup(env *workloads.Env) error {
	c := w.Cfg
	if c.RealN < 8 || c.RealN&(c.RealN-1) != 0 {
		return fmt.Errorf("kwave: RealN must be a power of two >= 8, got %d", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("kwave: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Steps < 1 {
		return fmt.Errorf("kwave: need at least one step")
	}
	r := float64(c.PaperN) / float64(c.RealN)
	// Paper arrays are single precision: 4 simulated bytes per element
	// against 8 real bytes.
	w.scale = r * r * r / 2
	n := c.RealN
	cells := n * n * n

	f := func(name string) *shim.TrackedSlice[float64] {
		return shim.Alloc[float64](env.Alloc, "kwave."+name, cells, w.scale)
	}
	w.p = f("p")
	w.ux, w.uy, w.uz = f("u.x"), f("u.y"), f("u.z")
	w.rhox, w.rhoy, w.rhoz = f("rho.x"), f("rho.y"), f("rho.z")
	w.dux, w.duy, w.duz = f("dux.x"), f("dux.y"), f("dux.z")
	w.kappa = f("kappa")
	w.c2 = f("c2")
	w.rho0Map = f("rho0")
	w.absorbTau = f("absorb_tau")
	w.absorbEta = f("absorb_eta")

	// Complex work arrays: 16 real bytes representing 8 paper bytes.
	w.workC1 = shim.Alloc[complex128](env.Alloc, "kwave.fft.work1", cells, w.scale)
	w.workC2 = shim.Alloc[complex128](env.Alloc, "kwave.fft.work2", cells, w.scale)

	// 1-D operators scale linearly with the grid edge.
	lin := r / 2
	c1 := func(name string) *shim.TrackedSlice[complex128] {
		return shim.Alloc[complex128](env.Alloc, "kwave."+name, n, lin)
	}
	w.ddx, w.ddy, w.ddz = c1("ddx_k"), c1("ddy_k"), c1("ddz_k")
	w.sgxp, w.sgyp, w.sgzp = c1("sg.x_pos"), c1("sg.y_pos"), c1("sg.z_pos")
	w.sgxn, w.sgyn, w.sgzn = c1("sg.x_neg"), c1("sg.y_neg"), c1("sg.z_neg")
	f1 := func(name string) *shim.TrackedSlice[float64] {
		return shim.Alloc[float64](env.Alloc, "kwave."+name, n, lin)
	}
	w.pmlx, w.pmly, w.pmlz = f1("pml.x"), f1("pml.y"), f1("pml.z")
	w.srcP = f1("source.p")
	w.srcMask = f1("source.mask")
	w.sensorD = f1("sensor.data")

	var err error
	w.grid, err = fft.NewGrid3(n)
	if err != nil {
		return err
	}
	w.ks = fft.WaveNumbers(n)
	w.axisFac = make([]complex128, n)

	// Operators: i·k with staggered-grid shifts exp(±i k/2), unit kappa
	// (uniform medium), uniform sound speed and density maps.
	for i := 0; i < n; i++ {
		k := w.ks[i]
		w.ddx.Data[i] = complex(0, k)
		w.ddy.Data[i] = complex(0, k)
		w.ddz.Data[i] = complex(0, k)
		shift := complex(math.Cos(k/2), math.Sin(k/2))
		w.sgxp.Data[i], w.sgyp.Data[i], w.sgzp.Data[i] = shift, shift, shift
		conj := complex(math.Cos(k/2), -math.Sin(k/2))
		w.sgxn.Data[i], w.sgyn.Data[i], w.sgzn.Data[i] = conj, conj, conj
		w.pmlx.Data[i], w.pmly.Data[i], w.pmlz.Data[i] = 1, 1, 1
	}
	for i := 0; i < cells; i++ {
		w.kappa.Data[i] = 1
		w.c2.Data[i] = c0 * c0
		w.rho0Map.Data[i] = rho0
		w.absorbTau.Data[i] = 0
		w.absorbEta.Data[i] = 0
	}

	// Initial condition: centred Gaussian pressure pulse, zero velocity.
	ctr := float64(n) / 2
	sigma := float64(n) / 10
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				d2 := sq(float64(i)-ctr) + sq(float64(j)-ctr) + sq(float64(k)-ctr)
				v := math.Exp(-d2 / (2 * sigma * sigma))
				idx := w.grid.Idx(i, j, k)
				w.p.Data[idx] = v
				// Linearised density perturbation split evenly.
				w.rhox.Data[idx] = v / (3 * c0 * c0)
				w.rhoy.Data[idx] = v / (3 * c0 * c0)
				w.rhoz.Data[idx] = v / (3 * c0 * c0)
				w.ux.Data[idx], w.uy.Data[idx], w.uz.Data[idx] = 0, 0, 0
			}
		}
	}
	w.energy = w.energy[:0]
	w.env = env
	w.stepped = false
	return nil
}

func sq(x float64) float64 { return x * x }

// fieldBytes returns the simulated size of one 3-D real field.
func (w *KWave) fieldBytes() units.Bytes {
	n := w.Cfg.RealN
	return units.Bytes(float64(n*n*n*8) * w.scale)
}

// emitFFT records one 3-D FFT phase: the three strided axis passes each
// stream the complex work array through memory (~4× its size of DRAM
// traffic in total after partial blocking), and the butterflies keep the
// phase close to compute/memory balance — which is why the paper finds
// the complex arrays individually most impactful.
func (w *KWave) emitFFT(name string, work *shim.TrackedSlice[complex128], extra []trace.Stream) {
	n := float64(w.Cfg.RealN)
	cells := n * n * n
	// 5 N log2(N³) real flops per 3-D transform. FFT work is
	// superlinear, so the log factor must come from the represented
	// (paper) grid edge, not the executed one.
	flops := 5 * cells * 3 * math.Log2(float64(w.Cfg.PaperN)) * w.scale
	wb := units.Bytes(float64(w.Cfg.RealN*w.Cfg.RealN*w.Cfg.RealN*16) * w.scale)
	streams := append([]trace.Stream{
		{Alloc: work.ID(), Bytes: 4 * wb, Kind: trace.Update, Pattern: trace.Stencil},
	}, extra...)
	w.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    w.env.Threads,
		Flops:      units.Flops(flops),
		VectorFrac: vecFrac,
		FlopEff:    fftEff,
		Streams:    streams,
	})
}

// gradP computes ∇p spectrally into (dux, duy, duz) with staggered
// shifts, and emits the corresponding FFT phases.
func (w *KWave) gradP() error {
	n := w.Cfg.RealN
	g := w.grid
	for i := range g.Data {
		g.Data[i] = complex(w.p.Data[i], 0)
	}
	if err := g.FFT3(false); err != nil {
		return err
	}
	copy(w.workC1.Data, g.Data)
	w.emitFFT("fft.p", w.workC1, []trace.Stream{
		{Alloc: w.p.ID(), Bytes: w.fieldBytes(), Kind: trace.Read, Pattern: trace.Sequential},
		{Alloc: w.kappa.ID(), Bytes: w.fieldBytes(), Kind: trace.Read, Pattern: trace.Sequential},
	})

	for dim, out := range []*shim.TrackedSlice[float64]{w.dux, w.duy, w.duz} {
		dd := [3]*shim.TrackedSlice[complex128]{w.ddx, w.ddy, w.ddz}[dim]
		sg := [3]*shim.TrackedSlice[complex128]{w.sgxp, w.sgyp, w.sgzp}[dim]
		si, sj, sk := axisStrides(dim)
		spec, kap := w.workC1.Data, w.kappa.Data
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				row := g.Idx(0, j, k)
				for i := 0; i < n; i++ {
					idx, t := row+i, i*si+j*sj+k*sk
					g.Data[idx] = spec[idx] * dd.Data[t] * sg.Data[t] * complex(kap[idx], 0)
				}
			}
		}
		if err := g.FFT3(true); err != nil {
			return err
		}
		for i := range out.Data {
			out.Data[i] = real(g.Data[i])
		}
		w.emitFFT(fmt.Sprintf("ifft.grad%c", 'x'+dim), w.workC2, []trace.Stream{
			{Alloc: w.workC1.ID(), Bytes: w.fieldBytes() * 2, Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: dd.ID(), Bytes: units.Bytes(float64(n*16) * w.scale / 2), Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: out.ID(), Bytes: w.fieldBytes(), Kind: trace.Write, Pattern: trace.Sequential},
		})
		// Restore the spectrum for the next axis.
		copy(g.Data, w.workC1.Data)
	}
	return nil
}

// axisStrides returns the unit selector of dimension dim: the position
// along it of (i, j, k) is i*si + j*sj + k*sk.
func axisStrides(dim int) (si, sj, sk int) {
	switch dim {
	case 0:
		return 1, 0, 0
	case 1:
		return 0, 1, 0
	default:
		return 0, 0, 1
	}
}

// divU computes ∇·u spectrally into dux (reused as the divergence
// accumulator at the pressure points).
func (w *KWave) divU() error {
	n := w.Cfg.RealN
	g := w.grid
	for i := range w.workC2.Data {
		w.workC2.Data[i] = 0
	}
	for dim, u := range []*shim.TrackedSlice[float64]{w.ux, w.uy, w.uz} {
		dd := [3]*shim.TrackedSlice[complex128]{w.ddx, w.ddy, w.ddz}[dim]
		sg := [3]*shim.TrackedSlice[complex128]{w.sgxn, w.sgyn, w.sgzn}[dim]
		for i := range g.Data {
			g.Data[i] = complex(u.Data[i], 0)
		}
		if err := g.FFT3(false); err != nil {
			return err
		}
		// The per-point factor dd[t]·sg[t] depends on the axis
		// position alone, so it is formed once per position.
		fac := w.axisFac
		for t := range fac {
			fac[t] = dd.Data[t] * sg.Data[t]
		}
		si, sj, sk := axisStrides(dim)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				row := g.Idx(0, j, k)
				for i := 0; i < n; i++ {
					g.Data[row+i] *= fac[i*si+j*sj+k*sk]
				}
			}
		}
		if err := g.FFT3(true); err != nil {
			return err
		}
		for i := range w.workC2.Data {
			w.workC2.Data[i] += g.Data[i]
		}
		w.emitFFT(fmt.Sprintf("fft.div%c", 'x'+dim), w.workC2, []trace.Stream{
			{Alloc: u.ID(), Bytes: w.fieldBytes(), Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: dd.ID(), Bytes: units.Bytes(float64(n*16) * w.scale / 2), Kind: trace.Read, Pattern: trace.Sequential},
		})
	}
	return nil
}

// Run implements workloads.Workload: Steps first-order k-space updates.
func (w *KWave) Run(env *workloads.Env) error {
	if w.p == nil {
		return fmt.Errorf("kwave: Run before Setup")
	}
	w.env = env
	dt := dtCFL / (c0 * math.Sqrt(3))
	w.energy = append(w.energy, w.totalEnergy())
	fb := w.fieldBytes()

	for step, steps := 0, env.Iters(w.Cfg.Steps); step < steps; step++ {
		// 1. u update: u -= dt/ρ0 ∇p.
		if err := w.gradP(); err != nil {
			return err
		}
		for i := range w.ux.Data {
			inv := dt / w.rho0Map.Data[i]
			w.ux.Data[i] -= inv * w.dux.Data[i]
			w.uy.Data[i] -= inv * w.duy.Data[i]
			w.uz.Data[i] -= inv * w.duz.Data[i]
		}
		env.Rec.Emit(trace.Phase{
			Name: "update_u", Threads: env.Threads,
			Flops:      units.Flops(6 * float64(w.Cfg.RealN*w.Cfg.RealN*w.Cfg.RealN) * w.scale),
			VectorFrac: vecFrac, FlopEff: memEff,
			Streams: []trace.Stream{
				{Alloc: w.ux.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.uy.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.uz.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.dux.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.duy.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.duz.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.rho0Map.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
			},
		})

		// 2. ρ update: ρ_d -= dt ρ0 ∂u_d/∂x_d (per-axis divergence parts
		// computed spectrally; here applied from the summed divergence
		// split evenly, matching the linear uniform-medium scheme).
		if err := w.divU(); err != nil {
			return err
		}
		for i := range w.rhox.Data {
			d := real(w.workC2.Data[i]) * dt * rho0 / 3
			w.rhox.Data[i] -= d
			w.rhoy.Data[i] -= d
			w.rhoz.Data[i] -= d
		}
		env.Rec.Emit(trace.Phase{
			Name: "update_rho", Threads: env.Threads,
			Flops:      units.Flops(6 * float64(w.Cfg.RealN*w.Cfg.RealN*w.Cfg.RealN) * w.scale),
			VectorFrac: vecFrac, FlopEff: memEff,
			Streams: []trace.Stream{
				{Alloc: w.rhox.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.rhoy.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.rhoz.ID(), Bytes: fb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: w.workC2.ID(), Bytes: 2 * fb, Kind: trace.Read, Pattern: trace.Sequential},
			},
		})

		// 3. Pressure: p = c²(ρx+ρy+ρz) with (zero) absorption terms.
		for i := range w.p.Data {
			w.p.Data[i] = w.c2.Data[i] * (w.rhox.Data[i] + w.rhoy.Data[i] + w.rhoz.Data[i] +
				w.absorbTau.Data[i] - w.absorbEta.Data[i])
		}
		env.Rec.Emit(trace.Phase{
			Name: "update_p", Threads: env.Threads,
			Flops:      units.Flops(5 * float64(w.Cfg.RealN*w.Cfg.RealN*w.Cfg.RealN) * w.scale),
			VectorFrac: vecFrac, FlopEff: memEff,
			Streams: []trace.Stream{
				{Alloc: w.p.ID(), Bytes: fb, Kind: trace.Write, Pattern: trace.Sequential},
				{Alloc: w.c2.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.rhox.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.rhoy.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.rhoz.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.absorbTau.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: w.absorbEta.ID(), Bytes: fb, Kind: trace.Read, Pattern: trace.Sequential},
			},
		})
		// Record the sensor trace (centre plane mean |p|).
		w.sensorD.Data[step%len(w.sensorD.Data)] = w.p.Data[w.grid.Idx(w.Cfg.RealN/2, w.Cfg.RealN/2, w.Cfg.RealN/2)]
		w.energy = append(w.energy, w.totalEnergy())
	}
	w.stepped = true
	return nil
}

// DefaultIterations implements workloads.IterationFamily (Env.Iterations
// overrides the configured step count).
func (w *KWave) DefaultIterations() int { return w.Cfg.Steps }

// PhaseSchedule implements workloads.IterationFamily: every time step
// emits the same ten phases — the forward pressure transform, the three
// staggered gradient inverse transforms, the velocity update, the three
// divergence transforms, and the density and pressure updates.
func (w *KWave) PhaseSchedule(iters int) []workloads.PhaseCount {
	i := int64(iters)
	return []workloads.PhaseCount{
		{Name: "fft.p", Count: i},
		{Name: "ifft.gradx", Count: i},
		{Name: "ifft.grady", Count: i},
		{Name: "ifft.gradz", Count: i},
		{Name: "update_u", Count: i},
		{Name: "fft.divx", Count: i},
		{Name: "fft.divy", Count: i},
		{Name: "fft.divz", Count: i},
		{Name: "update_rho", Count: i},
		{Name: "update_p", Count: i},
	}
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from (PaperN/RealN)³, never from Env.Scale.
func (w *KWave) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only shapes
// the initial pressure field values; the stencil schedule and
// allocation registry never depend on the seed.
func (w *KWave) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*KWave)(nil)
	_ workloads.ScaleFamily     = (*KWave)(nil)
	_ workloads.SeedFamily      = (*KWave)(nil)
)

// totalEnergy returns the discrete acoustic energy (potential + kinetic).
func (w *KWave) totalEnergy() float64 {
	e := 0.0
	for i := range w.p.Data {
		e += w.p.Data[i]*w.p.Data[i]/(rho0*c0*c0) +
			rho0*(w.ux.Data[i]*w.ux.Data[i]+w.uy.Data[i]*w.uy.Data[i]+w.uz.Data[i]*w.uz.Data[i])
	}
	return e
}

// Verify implements workloads.Workload: the pulse in a uniform lossless
// medium must keep its energy bounded, stay finite, and preserve the
// x↔y symmetry of the isotropic initial condition.
func (w *KWave) Verify() error {
	if !w.stepped {
		return fmt.Errorf("kwave: Verify before Run")
	}
	first, last := w.energy[0], w.energy[len(w.energy)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("kwave: diverged (energy %g)", last)
	}
	if last > 2.5*first || last < first/100 {
		return fmt.Errorf("kwave: energy drifted %g -> %g", first, last)
	}
	n := w.Cfg.RealN
	for k := 0; k < n; k += n / 8 {
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				a := w.p.Data[w.grid.Idx(i, j, k)]
				b := w.p.Data[w.grid.Idx(j, i, k)]
				if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					return fmt.Errorf("kwave: x/y symmetry broken at (%d,%d,%d): %g vs %g", i, j, k, a, b)
				}
			}
		}
	}
	return nil
}

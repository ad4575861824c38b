// Package npbsp implements the NPB Scalar Penta-diagonal (SP) benchmark
// analysed in Fig. 11: an ADI pseudo-solver whose implicit step solves
// scalar penta-diagonal systems along each grid dimension.
//
// The solver advances a 5-component field toward a manufactured steady
// state: the explicit right-hand side combines a fourth-order diffusion
// operator with a convective coupling through the auxiliary velocity
// arrays, and the implicit step applies the factored operator
// (I+dtDx)(I+dtDy)(I+dtDz) in delta form via npbcommon.PentaDiagSolve.
// The ten tracked allocations (u, rhs, forcing, us, vs, ws, qs, rho_i,
// speed, square) mirror Table I's sp.D entry at 11 GB simulated scale.
package npbsp

import (
	"fmt"
	"math"

	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
	"hmpt/internal/workloads/npbcommon"
)

// Solver constants: diffusion and convection coefficients and the ADI
// time step. They are chosen for a smooth contraction toward the
// manufactured solution at the executed grid sizes.
const (
	kappa = 2.5
	eps   = 0.01
	dt    = 0.8
)

// Compute-ceiling calibration (Fig. 11 / Table II: max 1.79×). The
// penta-diagonal solves are the compute-limited phases; the streaming
// phases are memory-bound.
const (
	vectorFrac   = 0.55
	solveFlopEff = 0.095
	memFlopEff   = 0.90
)

// Per-point flop estimates for the phase costs.
const (
	auxFlopsPerPt   = 22
	rhsFlopsPerPt   = 150
	solveFlopsPerPt = 125 // per direction: band build + penta solve, 5 comps
	addFlopsPerPt   = 10
)

// Config parameterises the SP workload.
type Config struct {
	RealN  int // executed grid edge
	PaperN int // represented grid edge (sp.D: 408)
	Iters  int
}

// DefaultConfig is sp.D at 36³ executed scale.
func DefaultConfig() Config { return Config{RealN: 36, PaperN: 408, Iters: 4} }

// SP is the Scalar Penta-diagonal workload.
type SP struct {
	Cfg   Config
	g     npbcommon.Grid
	scale float64

	u, rhs, forcing                   *shim.TrackedSlice[float64]
	us, vs, ws, qs, rhoI, speed, sqre *shim.TrackedSlice[float64]

	exact *npbcommon.ExactField
	d4    npbcommon.Diff4Table

	env      *workloads.Env
	errNorms []float64
}

// New returns an SP workload with the default configuration.
func New() *SP { return &SP{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.sp", "NPB Scalar Penta-diagonal (sp.D, 11.19 GB simulated, 10 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (s *SP) Name() string { return "npb.sp" }

// ErrNorms returns the error-norm history (initial first).
func (s *SP) ErrNorms() []float64 { return append([]float64(nil), s.errNorms...) }

// Setup implements workloads.Workload.
func (s *SP) Setup(env *workloads.Env) error {
	c := s.Cfg
	if c.RealN < 12 {
		return fmt.Errorf("npbsp: RealN %d too small", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("npbsp: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npbsp: need at least one iteration")
	}
	s.g = npbcommon.Grid{N: c.RealN}
	r := float64(c.PaperN) / float64(c.RealN)
	s.scale = r * r * r
	cells := s.g.Cells()

	s.u = shim.Alloc[float64](env.Alloc, "sp.u", cells*5, s.scale)
	s.rhs = shim.Alloc[float64](env.Alloc, "sp.rhs", cells*5, s.scale)
	s.forcing = shim.Alloc[float64](env.Alloc, "sp.forcing", cells*5, s.scale)
	s.us = shim.Alloc[float64](env.Alloc, "sp.us", cells, s.scale)
	s.vs = shim.Alloc[float64](env.Alloc, "sp.vs", cells, s.scale)
	s.ws = shim.Alloc[float64](env.Alloc, "sp.ws", cells, s.scale)
	s.qs = shim.Alloc[float64](env.Alloc, "sp.qs", cells, s.scale)
	s.rhoI = shim.Alloc[float64](env.Alloc, "sp.rho_i", cells, s.scale)
	s.speed = shim.Alloc[float64](env.Alloc, "sp.speed", cells, s.scale)
	s.sqre = shim.Alloc[float64](env.Alloc, "sp.square", cells, s.scale)

	s.d4 = npbcommon.NewDiff4Table(s.g)

	// u = exact + interior perturbation; forcing makes exact stationary.
	s.exact = npbcommon.NewExactField(s.g)
	s.exact.Fill(s.u.Data)
	s.computeForcing()
	npbcommon.Perturb(s.g, s.u.Data, 0.15, [3]float64{3 * math.Pi, 2 * math.Pi, math.Pi})
	s.errNorms = s.errNorms[:0]
	s.env = env
	return nil
}

// computeAuxInto fills the auxiliary arrays from field u. When emit is
// true the phase is recorded in the trace.
func (s *SP) computeAuxInto(u []float64, emit bool) {
	g := s.g
	et := 1
	if s.env != nil {
		et = s.env.ExecThreads()
	}
	us, vs, ws, qs, rhoI, speed, sqre := s.us.Data, s.vs.Data, s.ws.Data, s.qs.Data, s.rhoI.Data, s.speed.Data, s.sqre.Data
	parallel.For(et, g.Cells(), func(_, lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			b := idx * 5
			inv := 1 / u[b]
			rhoI[idx] = inv
			us[idx] = u[b+1] * inv
			vs[idx] = u[b+2] * inv
			ws[idx] = u[b+3] * inv
			sq := 0.5 * (u[b+1]*u[b+1] + u[b+2]*u[b+2] + u[b+3]*u[b+3]) * inv
			sqre[idx] = sq
			qs[idx] = sq * inv
			speed[idx] = math.Sqrt(math.Abs(u[b+4]*inv)) + 1
		}
	})
	if emit {
		cells := units.Bytes(g.Cells() * 8)
		s.emit("compute_aux", auxFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
			s.st(s.u, 5*cells, trace.Read),
			s.st(s.us, cells, trace.Write), s.st(s.vs, cells, trace.Write),
			s.st(s.ws, cells, trace.Write), s.st(s.qs, cells, trace.Write),
			s.st(s.rhoI, cells, trace.Write), s.st(s.speed, cells, trace.Write),
			s.st(s.sqre, cells, trace.Write),
		})
	}
}

// st builds one stencil-pattern stream at simulated scale.
func (s *SP) st(a *shim.TrackedSlice[float64], realBytes units.Bytes, kind trace.Kind) trace.Stream {
	return trace.Stream{
		Alloc:   a.ID(),
		Bytes:   units.Bytes(float64(realBytes) * s.scale),
		Kind:    kind,
		Pattern: trace.Stencil,
	}
}

func (s *SP) emit(name string, flopsPerPt, eff float64, pts int, streams []trace.Stream) {
	if s.env == nil {
		return
	}
	s.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    s.env.Threads,
		Flops:      units.Flops(flopsPerPt * float64(pts) * s.scale),
		VectorFrac: vectorFrac,
		FlopEff:    eff,
		Streams:    streams,
	})
}

// terms evaluates the parts of the explicit operator at interior cell
// (i, j, k): the summed fourth differences of each component of u into
// diff, and the convective factor divU + 0.05·(qs − ρ⁻¹) it returns. The
// aux arrays must be current for u.
func (s *SP) terms(u []float64, i, j, k int, diff *npbcommon.Vec5) float64 {
	g := s.g
	n := g.N
	idx := g.Idx(i, j, k)
	b := idx * 5
	ox, oy, oz := &s.d4[0][i], &s.d4[1][j], &s.d4[2][k]
	for comp := 0; comp < 5; comp++ {
		d := 0.0
		d += npbcommon.Diff4At(u, b+comp, ox)
		d += npbcommon.Diff4At(u, b+comp, oy)
		d += npbcommon.Diff4At(u, b+comp, oz)
		diff[comp] = d
	}
	us, vs, ws := s.us.Data, s.vs.Data, s.ws.Data
	divU := (us[idx+1] - us[idx-1] +
		vs[idx+n] - vs[idx-n] +
		ws[idx+n*n] - ws[idx-n*n]) * 0.5
	return divU + 0.05*(s.qs.Data[idx]-s.rhoI.Data[idx])
}

// computeForcing makes the exact field a fixed point: forcing = L(exact)
// evaluated with the same discrete operator (aux arrays from exact).
// Setup calls it while u still holds the exact field.
func (s *SP) computeForcing() {
	g := s.g
	exact := s.u.Data
	s.computeAuxInto(exact, false)
	forcing := s.forcing.Data
	for i := range forcing {
		forcing[i] = 0
	}
	var diff npbcommon.Vec5
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				// forcing such that the explicit operator of exact is 0.
				f := s.terms(exact, i, j, k, &diff)
				b := g.Idx(i, j, k) * 5
				for comp := 0; comp < 5; comp++ {
					conv := f * exact[b+comp]
					forcing[b+comp] = kappa*diff[comp] + eps*conv
				}
			}
		}
	}
}

// computeRHS fills rhs = dt · L(u) on the interior, where L(u) = forcing
// − diffusion − convection, and emits the phase.
func (s *SP) computeRHS() {
	g := s.g
	u := s.u.Data
	rhs := s.rhs.Data
	forcing := s.forcing.Data
	parallel.For(s.env.ExecThreads(), g.N, func(_, lo, hi int) {
		var diff npbcommon.Vec5
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					b := g.Idx(i, j, k) * 5
					if !g.Interior(i, j, k) {
						for comp := 0; comp < 5; comp++ {
							rhs[b+comp] = 0
						}
						continue
					}
					f := s.terms(u, i, j, k, &diff)
					for comp := 0; comp < 5; comp++ {
						conv := f * u[b+comp]
						rhs[b+comp] = dt * (forcing[b+comp] - kappa*diff[comp] - eps*conv)
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	s.emit("compute_rhs", rhsFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		s.st(s.u, 4*5*cells, trace.Read), // per-direction sweeps + base sweep each read u
		s.st(s.forcing, 5*cells, trace.Read),
		s.st(s.us, cells, trace.Read), s.st(s.vs, cells, trace.Read),
		s.st(s.ws, cells, trace.Read), s.st(s.qs, cells, trace.Read),
		s.st(s.rhoI, cells, trace.Read),
		s.st(s.rhs, 5*cells, trace.Write),
	})
}

// solveDim applies the implicit factor along the given dimension: for
// every grid line and component, build the penta bands of
// I + dt·κ_loc·(δ²)² and solve in place in rhs.
func (s *SP) solveDim(dim int) {
	g := s.g
	n := g.N
	rhs := s.rhs.Data
	speed := s.speed.Data
	base, stride := npbcommon.LineGeometry(n, dim)
	parallel.For(s.env.ExecThreads(), n, func(_, lo, hi int) {
		e := make([]float64, n)
		as := make([]float64, n)
		d := make([]float64, n)
		c := make([]float64, n)
		f := make([]float64, n)
		line := make([]npbcommon.Vec5, n)
		for b := lo; b < hi; b++ {
			for a := 0; a < n; a++ {
				// The bands depend only on the grid point, not the
				// component: build and factor them once per line and
				// carry all five components as one multi-RHS solve.
				first := base(a, b)
				for t, idx := 0, first; t < n; t, idx = t+1, idx+stride {
					if t == 0 || t == n-1 {
						// Dirichlet boundary rows: identity.
						e[t], as[t], d[t], c[t], f[t] = 0, 0, 1, 0, 0
					} else {
						kl := dt * kappa * (1 + 0.1*speed[idx])
						e[t] = kl
						as[t] = -4 * kl
						d[t] = 1 + 6*kl
						c[t] = -4 * kl
						f[t] = kl
						if t == 1 || t == n-2 {
							// One-sided closure folds the clamped
							// outer band into the diagonal.
							d[t] += kl
						}
					}
					line[t] = npbcommon.Vec5(rhs[idx*5 : idx*5+5])
				}
				if err := npbcommon.PentaDiagSolveVec(e, as, d, c, f, line); err != nil {
					panic(fmt.Sprintf("npbsp: %v", err)) // singular only on programming error
				}
				for t, idx := 0, first; t < n; t, idx = t+1, idx+stride {
					copy(rhs[idx*5:idx*5+5], line[t][:])
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	// NPB's lhsinit also reads the direction velocity and rho_i to build
	// the bands; those reads are part of every solve's traffic.
	vel := [3]*shim.TrackedSlice[float64]{s.us, s.vs, s.ws}[dim]
	s.emit([3]string{"x_solve", "y_solve", "z_solve"}[dim], solveFlopsPerPt, solveFlopEff, g.Cells(), []trace.Stream{
		s.st(s.rhs, 5*cells, trace.Update),
		s.st(s.speed, cells, trace.Read),
		s.st(vel, cells, trace.Read),
		s.st(s.rhoI, cells, trace.Read),
	})
}

// add applies the increment: u += rhs on the interior.
func (s *SP) add() {
	g := s.g
	u, rhs := s.u.Data, s.rhs.Data
	parallel.For(s.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					if !g.Interior(i, j, k) {
						continue
					}
					b := g.Idx(i, j, k) * 5
					for comp := 0; comp < 5; comp++ {
						u[b+comp] += rhs[b+comp]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	s.emit("add", addFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		s.st(s.rhs, 5*cells, trace.Read),
		s.st(s.u, 5*cells, trace.Update),
	})
}

// Run implements workloads.Workload.
func (s *SP) Run(env *workloads.Env) error {
	if s.u == nil {
		return fmt.Errorf("npbsp: Run before Setup")
	}
	s.env = env
	s.errNorms = append(s.errNorms, s.exact.ErrNorm(s.u.Data))
	for it, iters := 0, env.Iters(s.Cfg.Iters); it < iters; it++ {
		s.computeAuxInto(s.u.Data, true)
		s.computeRHS()
		s.solveDim(0)
		s.solveDim(1)
		s.solveDim(2)
		s.add()
		s.errNorms = append(s.errNorms, s.exact.ErrNorm(s.u.Data))
	}
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (s *SP) DefaultIterations() int { return s.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: the six-phase ADI
// loop body repeats identically every iteration.
func (s *SP) PhaseSchedule(iters int) []workloads.PhaseCount {
	i := int64(iters)
	return []workloads.PhaseCount{
		{Name: "compute_aux", Count: i},
		{Name: "compute_rhs", Count: i},
		{Name: "x_solve", Count: i},
		{Name: "y_solve", Count: i},
		{Name: "z_solve", Count: i},
		{Name: "add", Count: i},
	}
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from (PaperN/RealN)³, never from Env.Scale.
func (s *SP) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only perturbs
// the manufactured field values; the sweep structure and allocation
// registry never depend on the seed.
func (s *SP) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*SP)(nil)
	_ workloads.ScaleFamily     = (*SP)(nil)
	_ workloads.SeedFamily      = (*SP)(nil)
)

// Verify implements workloads.Workload: the ADI iteration must contract
// toward the manufactured solution.
func (s *SP) Verify() error {
	if len(s.errNorms) < 2 {
		return fmt.Errorf("npbsp: Verify before Run")
	}
	first, last := s.errNorms[0], s.errNorms[len(s.errNorms)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("npbsp: diverged (error %g)", last)
	}
	if last > 0.7*first {
		return fmt.Errorf("npbsp: weak contraction %g -> %g over %d iters", first, last, s.Cfg.Iters)
	}
	return nil
}

// Package npbbt implements the NPB Block Tri-diagonal (BT) benchmark
// analysed in Fig. 12: an ADI pseudo-solver whose implicit step solves
// 5×5 block-tridiagonal systems along every grid line — the most
// compute-intensive of the three NPB CFD solvers, which is why the paper
// measures only a 1.15× HBM speedup for it.
//
// The explicit operator is a component-coupled second-order diffusion
// (C ⊗ Laplacian) plus a convective term through the auxiliary velocity
// arrays; the implicit factors invert I + dt·κ_loc·C·(−δ²_dim) with real
// block Thomas elimination (npbcommon.BlockTriDiagSolve). The nine
// tracked allocations (u, rhs, forcing, us, vs, ws, qs, rho_i, square)
// mirror Table I's bt.D entry.
package npbbt

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

// Solver constants.
const (
	kappa = 1.2
	eps   = 0.01
	dt    = 0.9
	// couple is the off-diagonal strength of the component-coupling
	// matrix C = I + couple·(ones − I)/4.
	couple = 0.15
)

// Compute-ceiling calibration (Table II: max 1.15× — BT is nearly
// compute-bound by its dense 5×5 block factorisations). The solve
// phases run at low FMA efficiency (dependent block eliminations);
// the streaming phases are memory-bound and their ceiling is irrelevant.
const (
	vectorFrac   = 0.70
	solveFlopEff = 0.075
	memFlopEff   = 0.90
)

// Per-point flop estimates.
const (
	auxFlopsPerPt   = 20
	rhsFlopsPerPt   = 220
	solveFlopsPerPt = 620 // per direction: jacobians + block Thomas
	addFlopsPerPt   = 10
)

// Config parameterises the BT workload.
type Config struct {
	RealN  int
	PaperN int // bt.D: 408
	Iters  int
}

// DefaultConfig is bt.D at 28³ executed scale.
func DefaultConfig() Config { return Config{RealN: 28, PaperN: 408, Iters: 4} }

// BT is the Block Tri-diagonal workload.
type BT struct {
	Cfg   Config
	g     npbcommon.Grid
	scale float64

	u, rhs, forcing           *shim.TrackedSlice[float64]
	us, vs, ws, qs, rhoI, sqr *shim.TrackedSlice[float64]

	cmat     npbcommon.Mat5
	cij      npbcommon.IJ // cmat in the I/J block algebra
	exact    *npbcommon.ExactField
	env      *workloads.Env
	errNorms []float64
}

// New returns a BT workload with the default configuration.
func New() *BT { return &BT{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.bt", "NPB Block Tri-diagonal (bt.D, 10.68 GB simulated, 9 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (b *BT) Name() string { return "npb.bt" }

// ErrNorms returns the error-norm history (initial first).
func (b *BT) ErrNorms() []float64 { return append([]float64(nil), b.errNorms...) }

// Setup implements workloads.Workload.
func (b *BT) Setup(env *workloads.Env) error {
	c := b.Cfg
	if c.RealN < 12 {
		return fmt.Errorf("npbbt: RealN %d too small", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("npbbt: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npbbt: need at least one iteration")
	}
	b.g = npbcommon.Grid{N: c.RealN}
	r := float64(c.PaperN) / float64(c.RealN)
	b.scale = r * r * r
	cells := b.g.Cells()

	b.u = shim.Alloc[float64](env.Alloc, "bt.u", cells*5, b.scale)
	b.rhs = shim.Alloc[float64](env.Alloc, "bt.rhs", cells*5, b.scale)
	b.forcing = shim.Alloc[float64](env.Alloc, "bt.forcing", cells*5, b.scale)
	b.us = shim.Alloc[float64](env.Alloc, "bt.us", cells, b.scale)
	b.vs = shim.Alloc[float64](env.Alloc, "bt.vs", cells, b.scale)
	b.ws = shim.Alloc[float64](env.Alloc, "bt.ws", cells, b.scale)
	b.qs = shim.Alloc[float64](env.Alloc, "bt.qs", cells, b.scale)
	b.rhoI = shim.Alloc[float64](env.Alloc, "bt.rho_i", cells, b.scale)
	b.sqr = shim.Alloc[float64](env.Alloc, "bt.square", cells, b.scale)

	// Component-coupling matrix: SPD, diagonally dominant. In the I/J
	// basis the same matrix is (1−couple/4)·I + (couple/4)·J, which is
	// what lets the implicit solves run on the structured block algebra.
	b.cmat = npbcommon.Identity5()
	for r := 0; r < 5; r++ {
		for cc := 0; cc < 5; cc++ {
			if r != cc {
				b.cmat.Set(r, cc, couple/4)
			}
		}
	}
	b.cij = npbcommon.IJ{A: 1 - couple/4, B: couple / 4}

	b.exact = npbcommon.NewExactField(b.g)
	b.exact.Fill(b.u.Data)
	b.computeForcing()
	npbcommon.Perturb(b.g, b.u.Data, 0.12, [3]float64{2 * math.Pi, 3 * math.Pi, 2 * math.Pi})
	b.errNorms = b.errNorms[:0]
	b.env = env
	return nil
}

func (b *BT) computeAuxInto(u []float64, emit bool) {
	g := b.g
	et := 1
	if b.env != nil {
		et = b.env.ExecThreads()
	}
	us, vs, ws, qs, rhoI, sqr := b.us.Data, b.vs.Data, b.ws.Data, b.qs.Data, b.rhoI.Data, b.sqr.Data
	parallel.For(et, g.Cells(), func(_, lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			base := idx * 5
			inv := 1 / u[base]
			rhoI[idx] = inv
			us[idx] = u[base+1] * inv
			vs[idx] = u[base+2] * inv
			ws[idx] = u[base+3] * inv
			sq := 0.5 * (u[base+1]*u[base+1] + u[base+2]*u[base+2] + u[base+3]*u[base+3]) * inv
			sqr[idx] = sq
			qs[idx] = sq * inv
		}
	})
	if emit {
		cells := units.Bytes(g.Cells() * 8)
		b.emit("compute_aux", auxFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
			b.st(b.u, 5*cells, trace.Read),
			b.st(b.us, cells, trace.Write), b.st(b.vs, cells, trace.Write),
			b.st(b.ws, cells, trace.Write), b.st(b.qs, cells, trace.Write),
			b.st(b.rhoI, cells, trace.Write), b.st(b.sqr, cells, trace.Write),
		})
	}
}

func (b *BT) st(a *shim.TrackedSlice[float64], realBytes units.Bytes, kind trace.Kind) trace.Stream {
	return trace.Stream{
		Alloc:   a.ID(),
		Bytes:   units.Bytes(float64(realBytes) * b.scale),
		Kind:    kind,
		Pattern: trace.Stencil,
	}
}

func (b *BT) emit(name string, flopsPerPt, eff float64, pts int, streams []trace.Stream) {
	if b.env == nil {
		return
	}
	b.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    b.env.Threads,
		Flops:      units.Flops(flopsPerPt * float64(pts) * b.scale),
		VectorFrac: vectorFrac,
		FlopEff:    eff,
		Streams:    streams,
	})
}

// operatorAt evaluates the coupled explicit operator L(u) at interior
// cell (i, j, k) (all 5 components).
func (b *BT) operatorAt(u []float64, i, j, k int) npbcommon.Vec5 {
	g := b.g
	n := g.N
	idx := g.Idx(i, j, k)
	st := g.Strides5()
	base := idx * 5
	// lap[c'] = Σ_dims δ² u_c'
	var lap npbcommon.Vec5
	for c := 0; c < 5; c++ {
		s := 0.0
		s += npbcommon.Diff2At(u, base+c, st[0])
		s += npbcommon.Diff2At(u, base+c, st[1])
		s += npbcommon.Diff2At(u, base+c, st[2])
		lap[c] = s
	}
	coupled := b.cmat.MulVec(&lap)
	us, vs, ws := b.us.Data, b.vs.Data, b.ws.Data
	divU := (us[idx+1] - us[idx-1] +
		vs[idx+n] - vs[idx-n] +
		ws[idx+n*n] - ws[idx-n*n]) * 0.5
	f := divU + 0.05*(b.qs.Data[idx]-b.sqr.Data[idx]*b.rhoI.Data[idx])
	var out npbcommon.Vec5
	for c := 0; c < 5; c++ {
		conv := f * u[base+c]
		// du/dt = κ·C·∇²u (damping: ∇² has non-positive eigenvalues).
		out[c] = kappa*coupled[c] - eps*conv
	}
	return out
}

// computeForcing sets forcing = −L(exact) so that rhs(exact) = 0.
// Setup calls it while u still holds the exact field.
func (b *BT) computeForcing() {
	g := b.g
	exact := b.u.Data
	b.computeAuxInto(exact, false)
	for i := range b.forcing.Data {
		b.forcing.Data[i] = 0
	}
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				v := b.operatorAt(exact, i, j, k)
				base := g.Idx(i, j, k) * 5
				for c := 0; c < 5; c++ {
					b.forcing.Data[base+c] = -v[c]
				}
			}
		}
	}
}

// computeRHS fills rhs = dt · (forcing + L(u)) on the interior.
func (b *BT) computeRHS() {
	g := b.g
	u, rhs, forcing := b.u.Data, b.rhs.Data, b.forcing.Data
	parallel.For(b.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					base := g.Idx(i, j, k) * 5
					if !g.Interior(i, j, k) {
						for c := 0; c < 5; c++ {
							rhs[base+c] = 0
						}
						continue
					}
					v := b.operatorAt(u, i, j, k)
					for c := 0; c < 5; c++ {
						rhs[base+c] = dt * (forcing[base+c] + v[c])
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	b.emit("compute_rhs", rhsFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		b.st(b.u, 4*5*cells, trace.Read), // xi/eta/zeta sweeps + base sweep each read u
		b.st(b.forcing, 5*cells, trace.Read),
		b.st(b.us, cells, trace.Read), b.st(b.vs, cells, trace.Read),
		b.st(b.ws, cells, trace.Read), b.st(b.qs, cells, trace.Read),
		b.st(b.rhoI, cells, trace.Read), b.st(b.sqr, cells, trace.Read),
		b.st(b.rhs, 5*cells, trace.Write),
	})
}

// solveDim applies the implicit factor along one dimension: per line,
// build the 5×5 block-tridiagonal system of I + dt·κ_loc·C·(−δ²) and
// solve in place in rhs.
func (b *BT) solveDim(dim int) {
	g := b.g
	n := g.N
	rhs := b.rhs.Data
	rhoI := b.rhoI.Data
	first, stride := npbcommon.LineGeometry(n, dim)
	parallel.For(b.env.ExecThreads(), n, func(_, lo, hi int) {
		al := make([]npbcommon.IJ, n)
		bl := make([]npbcommon.IJ, n)
		cl := make([]npbcommon.IJ, n)
		d := make([]npbcommon.Vec5, n)
		for bb := lo; bb < hi; bb++ {
			for a := 0; a < n; a++ {
				base := first(a, bb)
				for t, idx := 0, base; t < n; t, idx = t+1, idx+stride {
					if t == 0 || t == n-1 {
						al[t] = npbcommon.IJ{}
						bl[t] = npbcommon.IJ{A: 1}
						cl[t] = npbcommon.IJ{}
					} else {
						// The blocks −kl·C and I + 2kl·C stay inside the
						// I/J algebra, so the line solve runs on the
						// structured Thomas elimination.
						kl := dt * kappa * (1 + 0.1*rhoI[idx])
						off := npbcommon.IJ{A: -kl * b.cij.A, B: -kl * b.cij.B}
						al[t] = off
						cl[t] = off
						bl[t] = npbcommon.IJ{A: 1 + 2*kl*b.cij.A, B: 2 * kl * b.cij.B}
					}
					d[t] = npbcommon.Vec5(rhs[idx*5 : idx*5+5])
				}
				if err := npbcommon.CoupledTriDiagSolve(al, bl, cl, d); err != nil {
					panic(fmt.Sprintf("npbbt: %v", err))
				}
				for t, idx := 0, base; t < n; t, idx = t+1, idx+stride {
					copy(rhs[idx*5:idx*5+5], d[t][:])
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	// NPB BT computes fjac/njac from u along every line, and the lhs
	// conditioning reads the direction velocity and qs.
	vel := [3]*shim.TrackedSlice[float64]{b.us, b.vs, b.ws}[dim]
	b.emit([3]string{"x_solve", "y_solve", "z_solve"}[dim], solveFlopsPerPt, solveFlopEff, g.Cells(), []trace.Stream{
		b.st(b.rhs, 5*cells, trace.Update),
		b.st(b.u, 5*cells, trace.Read),
		b.st(b.rhoI, cells, trace.Read),
		b.st(vel, cells, trace.Read),
		b.st(b.qs, cells, trace.Read),
	})
}

// add applies the increment u += rhs on the interior.
func (b *BT) add() {
	g := b.g
	u, rhs := b.u.Data, b.rhs.Data
	parallel.For(b.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					if !g.Interior(i, j, k) {
						continue
					}
					base := g.Idx(i, j, k) * 5
					for c := 0; c < 5; c++ {
						u[base+c] += rhs[base+c]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	b.emit("add", addFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		b.st(b.rhs, 5*cells, trace.Read),
		b.st(b.u, 5*cells, trace.Update),
	})
}

// Run implements workloads.Workload.
func (b *BT) Run(env *workloads.Env) error {
	if b.u == nil {
		return fmt.Errorf("npbbt: Run before Setup")
	}
	b.env = env
	b.errNorms = append(b.errNorms, b.exact.ErrNorm(b.u.Data))
	for it, iters := 0, env.Iters(b.Cfg.Iters); it < iters; it++ {
		b.computeAuxInto(b.u.Data, true)
		b.computeRHS()
		b.solveDim(0)
		b.solveDim(1)
		b.solveDim(2)
		b.add()
		b.errNorms = append(b.errNorms, b.exact.ErrNorm(b.u.Data))
	}
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (b *BT) DefaultIterations() int { return b.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: the six-phase ADI
// loop body repeats identically every iteration.
func (b *BT) PhaseSchedule(iters int) []workloads.PhaseCount {
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
func (b *BT) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only perturbs
// the initial field values; the ADI sweep structure and allocation
// registry never depend on the seed.
func (b *BT) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*BT)(nil)
	_ workloads.ScaleFamily     = (*BT)(nil)
	_ workloads.SeedFamily      = (*BT)(nil)
)

// Verify implements workloads.Workload.
func (b *BT) Verify() error {
	if len(b.errNorms) < 2 {
		return fmt.Errorf("npbbt: Verify before Run")
	}
	first, last := b.errNorms[0], b.errNorms[len(b.errNorms)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("npbbt: diverged (error %g)", last)
	}
	if last > 0.7*first {
		return fmt.Errorf("npbbt: weak contraction %g -> %g over %d iters", first, last, b.Cfg.Iters)
	}
	return nil
}

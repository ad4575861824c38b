// Package npblu implements the NPB Lower-Upper Gauss-Seidel (LU)
// benchmark analysed in Fig. 13: an SSOR pseudo-solver whose symmetric
// sweeps apply lower- and upper-triangular 5×5 block factors built from
// per-plane jacobian workspaces.
//
// Structure follows NPB LU: rsd = frct − A·u (the residual), a forward
// (lower) sweep and a backward (upper) sweep relax the residual with
// block-diagonal inverses, and u += ω·rsd. The operator A is the same
// coupled diffusion used by BT. Tracked allocations (7, Table I): u,
// rsd, frct, qs, rho_i, plus the per-plane jacobian workspaces jac_l and
// jac_u, which scale with the squared grid ratio.
//
// The paper's headline observation for LU — most of its speedup comes
// from a single allocation holding about 25 % of the footprint — emerges
// here because rsd is rewritten by every sweep while frct is only read
// once per iteration.
package npblu

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
	kappa  = 1.0
	eps    = 0.01
	omega  = 1.2 // SSOR relaxation factor
	couple = 0.15
	sigma  = 0.3 // diagonal shift keeping blocks well conditioned
)

// Compute-ceiling calibration (Table II: max 1.27×). The triangular
// sweeps are compute-bound (dependent block applications); the residual
// and update phases are memory-bound.
const (
	vectorFrac   = 0.60
	sweepFlopEff = 0.12
	memFlopEff   = 0.90
)

// Per-point flop estimates.
const (
	rhsFlopsPerPt   = 180
	sweepFlopsPerPt = 480 // jacobian build + block solve per sweep
	addFlopsPerPt   = 12
)

// Config parameterises the LU workload.
type Config struct {
	RealN  int
	PaperN int // lu.D: 408
	Iters  int
}

// DefaultConfig is lu.D at 28³ executed scale.
func DefaultConfig() Config { return Config{RealN: 28, PaperN: 408, Iters: 5} }

// LU is the Lower-Upper Gauss-Seidel workload.
type LU struct {
	Cfg   Config
	g     npbcommon.Grid
	scale float64

	u, rsd, frct *shim.TrackedSlice[float64]
	qs, rhoI     *shim.TrackedSlice[float64]
	jacL, jacU   *shim.TrackedSlice[float64] // per-plane 5×5 blocks

	cmat     npbcommon.Mat5
	dinv     npbcommon.Mat5 // inverse diagonal block (constant-coefficient part)
	exact    *npbcommon.ExactField
	plane    []float64 // buts scratch: the pre-sweep copy of one rsd k-plane
	env      *workloads.Env
	errNorms []float64
}

// New returns an LU workload with the default configuration.
func New() *LU { return &LU{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.lu", "NPB Lower-Upper Gauss-Seidel (lu.D, 8.65 GB simulated, 7 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (l *LU) Name() string { return "npb.lu" }

// ErrNorms returns the error-norm history (initial first).
func (l *LU) ErrNorms() []float64 { return append([]float64(nil), l.errNorms...) }

// ResidAlloc returns the residual allocation (the paper's single
// high-impact allocation).
func (l *LU) ResidAlloc() shim.AllocID { return l.rsd.ID() }

// Setup implements workloads.Workload.
func (l *LU) Setup(env *workloads.Env) error {
	c := l.Cfg
	if c.RealN < 12 {
		return fmt.Errorf("npblu: RealN %d too small", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("npblu: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npblu: need at least one iteration")
	}
	l.g = npbcommon.Grid{N: c.RealN}
	r := float64(c.PaperN) / float64(c.RealN)
	l.scale = r * r * r
	scale2 := r * r
	cells := l.g.Cells()
	plane := c.RealN * c.RealN

	l.u = shim.Alloc[float64](env.Alloc, "lu.u", cells*5, l.scale)
	l.rsd = shim.Alloc[float64](env.Alloc, "lu.rsd", cells*5, l.scale)
	l.frct = shim.Alloc[float64](env.Alloc, "lu.frct", cells*5, l.scale)
	l.qs = shim.Alloc[float64](env.Alloc, "lu.qs", cells, l.scale)
	l.rhoI = shim.Alloc[float64](env.Alloc, "lu.rho_i", cells, l.scale)
	// Jacobian workspaces are 2-D (per k-plane) in NPB LU, so they scale
	// with the squared grid ratio.
	l.jacL = shim.Alloc[float64](env.Alloc, "lu.jac_l", plane*25, scale2)
	l.jacU = shim.Alloc[float64](env.Alloc, "lu.jac_u", plane*25, scale2)

	l.cmat = npbcommon.Identity5()
	for rr := 0; rr < 5; rr++ {
		for cc := 0; cc < 5; cc++ {
			if rr != cc {
				l.cmat.Set(rr, cc, couple/4)
			}
		}
	}
	// Diagonal block of A: σI + 6κC (from three −δ² terms).
	diag := npbcommon.AddScaled(&npbcommon.Mat5{}, &l.cmat, 6*kappa)
	for i := 0; i < 5; i++ {
		diag[i*5+i] += sigma
	}
	var err error
	l.dinv, err = diag.Invert()
	if err != nil {
		return fmt.Errorf("npblu: diagonal block: %w", err)
	}

	l.exact = npbcommon.NewExactField(l.g)
	l.exact.Fill(l.u.Data)
	l.computeForcing()
	npbcommon.Perturb(l.g, l.u.Data, 0.12, [3]float64{2 * math.Pi, 2 * math.Pi, 3 * math.Pi})
	l.plane = make([]float64, plane*5)
	l.errNorms = l.errNorms[:0]
	l.env = env
	return nil
}

func (l *LU) computeAux(u []float64) {
	qs, rhoI := l.qs.Data, l.rhoI.Data
	for idx := 0; idx < l.g.Cells(); idx++ {
		base := idx * 5
		inv := 1 / u[base]
		rhoI[idx] = inv
		qs[idx] = 0.5 * (u[base+1]*u[base+1] + u[base+2]*u[base+2] + u[base+3]*u[base+3]) * inv * inv
	}
}

// st builds a stencil stream. Traffic always scales with the cubed grid
// ratio (a sweep touches every plane PaperN times), even for the
// plane-sized jacobian workspaces whose *size* scales quadratically.
func (l *LU) st(a *shim.TrackedSlice[float64], realBytes units.Bytes, kind trace.Kind) trace.Stream {
	return trace.Stream{
		Alloc:   a.ID(),
		Bytes:   units.Bytes(float64(realBytes) * l.scale),
		Kind:    kind,
		Pattern: trace.Stencil,
	}
}

func (l *LU) emit(name string, flopsPerPt, eff float64, pts int, streams []trace.Stream) {
	if l.env == nil {
		return
	}
	l.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    l.env.Threads,
		Flops:      units.Flops(flopsPerPt * float64(pts) * l.scale),
		VectorFrac: vectorFrac,
		FlopEff:    eff,
		Streams:    streams,
	})
}

// applyA evaluates A·u at interior cell idx: (σI + κC·(−∇²))u + eps·conv.
func (l *LU) applyA(u []float64, idx int) npbcommon.Vec5 {
	st := l.g.Strides5()
	b := idx * 5
	var lap npbcommon.Vec5
	for c := 0; c < 5; c++ {
		s := 0.0
		s += npbcommon.Diff2At(u, b+c, st[0])
		s += npbcommon.Diff2At(u, b+c, st[1])
		s += npbcommon.Diff2At(u, b+c, st[2])
		lap[c] = -s // −∇²: positive semi-definite
	}
	coupled := l.cmat.MulVec(&lap)
	q := l.qs.Data[idx] - l.rhoI.Data[idx]
	var out npbcommon.Vec5
	for c := 0; c < 5; c++ {
		conv := q * u[b+c]
		out[c] = sigma*u[b+c] + kappa*coupled[c] + eps*conv
	}
	return out
}

// computeForcing sets frct = A(exact) so exact is the steady solution.
// Setup calls it while u still holds the exact field.
func (l *LU) computeForcing() {
	g := l.g
	exact := l.u.Data
	l.computeAux(exact)
	for i := range l.frct.Data {
		l.frct.Data[i] = 0
	}
	for k := 1; k < g.N-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				idx := g.Idx(i, j, k)
				v := l.applyA(exact, idx)
				copy(l.frct.Data[idx*5:idx*5+5], v[:])
			}
		}
	}
}

// computeResid fills rsd = frct − A·u and emits the phase (NPB "rhs").
func (l *LU) computeResid() {
	g := l.g
	u, rsd, frct := l.u.Data, l.rsd.Data, l.frct.Data
	l.computeAux(u)
	parallel.For(l.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					base := g.Idx(i, j, k) * 5
					if !g.Interior(i, j, k) {
						for c := 0; c < 5; c++ {
							rsd[base+c] = 0
						}
						continue
					}
					v := l.applyA(u, g.Idx(i, j, k))
					for c := 0; c < 5; c++ {
						rsd[base+c] = frct[base+c] - v[c]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	l.emit("rhs", rhsFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		l.st(l.u, 5*cells, trace.Read),
		l.st(l.frct, 5*cells, trace.Read),
		l.st(l.qs, cells, trace.Update), l.st(l.rhoI, cells, trace.Update),
		l.st(l.rsd, 5*cells, trace.Write),
	})
}

// sweep performs one triangular relaxation: forward (lower) when fwd,
// backward (upper) otherwise. Within each k-plane the jacobian blocks
// are materialised into the plane workspace and then applied — the NPB
// jacld/blts (jacu/buts) pair.
//
// The result does not depend on the thread count. The forward sweep is
// Gauss–Seidel within the plane: (i, j) reads the already-relaxed
// (i−1, j) and (i, j−1), so it runs serially in row order. The backward
// sweep reads the in-plane neighbours (i+1, j) and (i, j+1) as they
// were before the plane's relaxation, so it reads them from a copy of
// the plane and relaxes all points independently.
func (l *LU) sweep(fwd bool) {
	g := l.g
	n := g.N
	rsd := l.rsd.Data
	rhoI := l.rhoI.Data
	jacSlice := l.jacL
	name := "blts"
	if !fwd {
		jacSlice = l.jacU
		name = "buts"
	}
	jac := jacSlice.Data
	et := l.env.ExecThreads()
	for kk := 1; kk < n-1; kk++ {
		k := kk
		if !fwd {
			k = n - 1 - kk
		}
		// jacld/jacu: build the per-plane diagonal blocks (spatially
		// varying conditioning through rho_i).
		parallel.For(et, n, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				for i := 0; i < n; i++ {
					p := (j*n + i) * 25
					scale := 1 + 0.05*rhoI[g.Idx(i, j, k)]
					for c := 0; c < 25; c++ {
						jac[p+c] = l.dinv[c] / scale
					}
				}
			}
		})
		// blts/buts: relax the plane.
		if fwd {
			for j := 1; j < n-1; j++ {
				for i := 1; i < n-1; i++ {
					l.relax(rsd, 0, jac, i, j, k, true)
				}
			}
			continue
		}
		pb := k * n * n * 5
		copy(l.plane, rsd[pb:pb+n*n*5])
		parallel.For(et, n-2, func(_, lo, hi int) {
			for j := lo + 1; j < hi+1; j++ {
				for i := 1; i < n-1; i++ {
					l.relax(l.plane, pb, jac, i, j, k, false)
				}
			}
		})
	}
	cells := units.Bytes(g.Cells() * 8)
	// The jacobian plane is rebuilt for every k but stays L3-resident
	// between jacld and blts/buts (33 MB plane vs 105 MB L3 at paper
	// scale), so its DRAM traffic per sweep is a couple of plane sizes,
	// not a full volume sweep.
	simPlane := units.Bytes(float64(n*n*25*8) * l.jacL.Rec.Scale)
	l.emit(name, sweepFlopsPerPt, sweepFlopEff, g.Cells(), []trace.Stream{
		l.st(l.rsd, 5*cells, trace.Update),
		l.st(l.rhoI, cells, trace.Read),
		{Alloc: jacSlice.ID(), Bytes: 2 * simPlane, Kind: trace.Update, Pattern: trace.Stencil},
	})
}

// relax applies one block relaxation at interior point (i, j, k). The
// neighbours (i∓1, j) and (i, j∓1) in the sweep's upstream direction
// are read from nb, which holds rsd's elements from offset nbBase on
// (rsd itself, or the pre-sweep plane copy); (i, j, k∓1) comes from rsd.
func (l *LU) relax(nb []float64, nbBase int, jac []float64, i, j, k int, fwd bool) {
	g := l.g
	n := g.N
	rsd := l.rsd.Data
	idx := g.Idx(i, j, k)
	var in, jn, kn int
	if fwd {
		in, jn, kn = idx-1, idx-n, idx-n*n
	} else {
		in, jn, kn = idx+1, idx+n, idx+n*n
	}
	in, jn = in*5-nbBase, jn*5-nbBase
	var s npbcommon.Vec5
	for c := 0; c < 5; c++ {
		s[c] = nb[in+c] + nb[jn+c] + rsd[kn*5+c]
	}
	// L (or U) off-diagonal blocks are −κC.
	cnb := l.cmat.MulVec(&s)
	var v npbcommon.Vec5
	for c := 0; c < 5; c++ {
		v[c] = rsd[idx*5+c] + kappa*cnb[c]*0.5
	}
	// Apply the plane jacobian (scaled D⁻¹).
	p := (j*n + i) * 25
	res := (*npbcommon.Mat5)(jac[p : p+25]).MulVec(&v)
	copy(rsd[idx*5:idx*5+5], res[:])
}

// add applies u += ω·rsd on the interior.
func (l *LU) add() {
	g := l.g
	u, rsd := l.u.Data, l.rsd.Data
	parallel.For(l.env.ExecThreads(), g.N, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					if !g.Interior(i, j, k) {
						continue
					}
					base := g.Idx(i, j, k) * 5
					for c := 0; c < 5; c++ {
						u[base+c] += omega * rsd[base+c]
					}
				}
			}
		}
	})
	cells := units.Bytes(g.Cells() * 8)
	l.emit("add", addFlopsPerPt, memFlopEff, g.Cells(), []trace.Stream{
		l.st(l.rsd, 5*cells, trace.Read),
		l.st(l.u, 5*cells, trace.Update),
	})
}

// Run implements workloads.Workload: SSOR iterations.
func (l *LU) Run(env *workloads.Env) error {
	if l.u == nil {
		return fmt.Errorf("npblu: Run before Setup")
	}
	l.env = env
	l.errNorms = append(l.errNorms, l.exact.ErrNorm(l.u.Data))
	for it, iters := 0, env.Iters(l.Cfg.Iters); it < iters; it++ {
		l.computeResid()
		l.sweep(true)
		l.sweep(false)
		l.add()
		l.errNorms = append(l.errNorms, l.exact.ErrNorm(l.u.Data))
	}
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (l *LU) DefaultIterations() int { return l.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: the four-phase
// SSOR loop body repeats identically every iteration.
func (l *LU) PhaseSchedule(iters int) []workloads.PhaseCount {
	i := int64(iters)
	return []workloads.PhaseCount{
		{Name: "rhs", Count: i},
		{Name: "blts", Count: i},
		{Name: "buts", Count: i},
		{Name: "add", Count: i},
	}
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from (PaperN/RealN)³, never from Env.Scale.
func (l *LU) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only perturbs
// the initial field values; the SSOR sweep structure and allocation
// registry never depend on the seed.
func (l *LU) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*LU)(nil)
	_ workloads.ScaleFamily     = (*LU)(nil)
	_ workloads.SeedFamily      = (*LU)(nil)
)

// Verify implements workloads.Workload.
func (l *LU) Verify() error {
	if len(l.errNorms) < 2 {
		return fmt.Errorf("npblu: Verify before Run")
	}
	first, last := l.errNorms[0], l.errNorms[len(l.errNorms)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("npblu: diverged (error %g)", last)
	}
	if last > 0.7*first {
		return fmt.Errorf("npblu: weak contraction %g -> %g over %d iters", first, last, l.Cfg.Iters)
	}
	return nil
}

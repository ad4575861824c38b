// Package npbmg implements the NAS Parallel Benchmarks Multi-Grid kernel
// (mg), the paper's flagship analysis target (Figs. 7 and 9).
//
// The implementation is a real V-cycle multigrid solver for the scalar
// Poisson problem on a periodic 3-D grid, following the NPB structure:
// resid (27-point residual), psinv (27-point smoother), rprj3
// (full-weighting restriction) and interp (trilinear prolongation), with
// the solution and residual hierarchies each held in a single allocation
// and the right-hand side in a third — the three significant allocations
// of Table I.
//
// The kernel runs on a RealN³ grid and registers simulated sizes scaled
// by (PaperN/RealN)³, reproducing the 26.46 GB footprint of mg.D.
package npbmg

import (
	"fmt"
	"math"

	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
)

// NPB mg coefficient sets (class-independent).
var (
	// aCoef is the residual stencil: centre, face, edge, corner weights.
	aCoef = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	// cCoef is the smoother stencil.
	cCoef = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
)

// Approximate flop counts per grid point for each kernel (NPB operation
// counts; the scaled totals drive the compute ceiling).
const (
	residFlopsPerPt  = 31
	psinvFlopsPerPt  = 30
	rprj3FlopsPerPt  = 20 // per coarse point
	interpFlopsPerPt = 8  // per fine point
)

// Calibration of the compute ceiling on the Xeon Max model: partially
// vectorised stencils with gather-heavy inner loops (see DESIGN.md §5).
const (
	vectorFrac = 0.35
	flopEff    = 0.30
)

// Config parameterises the MG workload.
type Config struct {
	// RealN is the executed grid edge (power of two ≥ 16).
	RealN int
	// PaperN is the represented class-D grid edge (1024).
	PaperN int
	// Iters is the number of V-cycles (paper: reduced iteration count).
	Iters int
}

// DefaultConfig is mg.D at 64³ executed scale.
func DefaultConfig() Config { return Config{RealN: 64, PaperN: 1024, Iters: 4} }

// MG is the Multi-Grid workload.
type MG struct {
	Cfg    Config
	levels int
	n      []int // grid edge per level, finest first
	off    []int // offset of each level in the hierarchy backing arrays
	hier   int   // total hierarchy elements
	scale  float64

	u, v, r *shim.TrackedSlice[float64]

	threads  int
	env      *workloads.Env
	rnm2     []float64 // residual norms per iteration (index 0 = initial)
	verified bool
}

// New returns an MG workload with the default (mg.D) configuration.
func New() *MG { return &MG{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.mg", "NPB Multi-Grid (mg.D, 26.46 GB simulated, 3 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (m *MG) Name() string { return "npb.mg" }

// Allocations returns the IDs of (u, v, r) after Setup.
func (m *MG) Allocations() (u, v, r shim.AllocID) { return m.u.ID(), m.v.ID(), m.r.ID() }

// ResidualNorms returns the recorded L2 residual norms (initial first).
func (m *MG) ResidualNorms() []float64 { return append([]float64(nil), m.rnm2...) }

// Setup implements workloads.Workload.
func (m *MG) Setup(env *workloads.Env) error {
	c := m.Cfg
	if c.RealN < 16 || c.RealN&(c.RealN-1) != 0 {
		return fmt.Errorf("npbmg: RealN must be a power of two >= 16, got %d", c.RealN)
	}
	if c.PaperN < c.RealN {
		return fmt.Errorf("npbmg: PaperN %d below RealN %d", c.PaperN, c.RealN)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npbmg: need at least one iteration")
	}
	// Build the level hierarchy down to a 4³ coarsest grid.
	m.n = m.n[:0]
	m.off = m.off[:0]
	total := 0
	for n := c.RealN; n >= 4; n /= 2 {
		m.n = append(m.n, n)
		m.off = append(m.off, total)
		total += n * n * n
	}
	m.levels = len(m.n)
	m.hier = total
	ratio := float64(c.PaperN) / float64(c.RealN)
	m.scale = ratio * ratio * ratio

	m.u = shim.Alloc[float64](env.Alloc, "mg.u", total, m.scale)
	m.r = shim.Alloc[float64](env.Alloc, "mg.r", total, m.scale)
	fine := c.RealN * c.RealN * c.RealN
	m.v = shim.Alloc[float64](env.Alloc, "mg.v", fine, m.scale)

	// NPB-style right-hand side: +1/-1 point charges at pseudo-random
	// positions (deterministic from the environment RNG).
	for i := range m.v.Data {
		m.v.Data[i] = 0
	}
	nCharges := 10
	for k := 0; k < nCharges; k++ {
		pos := env.RNG.Intn(fine)
		if k%2 == 0 {
			m.v.Data[pos] = 1
		} else {
			m.v.Data[pos] = -1
		}
	}
	for i := range m.u.Data {
		m.u.Data[i] = 0
		m.r.Data[i] = 0
	}
	m.rnm2 = m.rnm2[:0]
	m.verified = false
	m.env = env
	return nil
}

// lvl returns the slice of hierarchy array a at level l.
func (m *MG) lvl(a []float64, l int) []float64 {
	n := m.n[l]
	return a[m.off[l] : m.off[l]+n*n*n]
}

// emit records one kernel phase at simulated scale.
func (m *MG) emit(name string, flopsPerPt float64, pts int, streams []trace.Stream) {
	m.env.Rec.Emit(trace.Phase{
		Name:       name,
		Threads:    m.env.Threads,
		Flops:      units.Flops(flopsPerPt * float64(pts) * m.scale),
		VectorFrac: vectorFrac,
		FlopEff:    flopEff,
		Streams:    streams,
	})
}

// stream3 builds the stream list for a stencil phase touching the given
// (allocation, real bytes, kind) triples.
func (m *MG) stream3(parts ...trace.Stream) []trace.Stream {
	out := make([]trace.Stream, 0, len(parts))
	for _, p := range parts {
		p.Bytes = units.Bytes(float64(p.Bytes) * m.scale)
		if p.Pattern == trace.Sequential {
			p.Pattern = trace.Stencil
		}
		out = append(out, p)
	}
	return out
}

// resid computes out = rhs - A·u at level l (27-point stencil, periodic).
func (m *MG) resid(u, rhs, out []float64, l int) {
	n := m.n[l]
	et := m.env.ExecThreads()
	parallel.For(et, n, func(_, lo, hi int) {
		stencil27(u, rhs, out, n, lo, hi, &aCoef)
	})
	pts := n * n * n
	bytes := units.Bytes(pts * 8)
	m.emit("resid", residFlopsPerPt, pts, m.stream3(
		trace.Stream{Alloc: m.u.ID(), Bytes: bytes, Kind: trace.Read},
		trace.Stream{Alloc: allocOf(m, rhs), Bytes: bytes, Kind: trace.Read},
		trace.Stream{Alloc: m.r.ID(), Bytes: bytes, Kind: trace.Write},
	))
}

// allocOf maps a backing slice to its allocation ID (rhs is either v at
// the finest level or the r hierarchy during the up-cycle).
func allocOf(m *MG, s []float64) shim.AllocID {
	if len(m.v.Data) > 0 && &s[0] == &m.v.Data[0] {
		return m.v.ID()
	}
	return m.r.ID()
}

// psinv applies the smoother: u += S·r at level l.
func (m *MG) psinv(r, u []float64, l int) {
	n := m.n[l]
	et := m.env.ExecThreads()
	parallel.For(et, n, func(_, lo, hi int) {
		stencil27(r, nil, u, n, lo, hi, &cCoef)
	})
	pts := n * n * n
	bytes := units.Bytes(pts * 8)
	m.emit("psinv", psinvFlopsPerPt, pts, m.stream3(
		trace.Stream{Alloc: m.r.ID(), Bytes: bytes, Kind: trace.Read},
		trace.Stream{Alloc: m.u.ID(), Bytes: bytes, Kind: trace.Update},
	))
}

// stencil27 evaluates the class-weighted 27-point stencil S of a over
// the k-planes [lo, hi) of a periodic n³ level. With rhs non-nil it
// stores rhs − S(a) into out (resid; rhs may alias out); with rhs nil it
// adds S(a) into out (psinv). Each point sums its faces, edges and
// corners in a fixed neighbour order, reading the nine (j±1, k±1) rows
// it touches through precomputed row slices.
func stencil27(a, rhs, out []float64, n, lo, hi int, w *[4]float64) {
	row := func(j, k int) []float64 {
		b := (k*n + j) * n
		return a[b : b+n : b+n]
	}
	for k := lo; k < hi; k++ {
		km, kp := wrap(k-1, n), wrap(k+1, n)
		for j := 0; j < n; j++ {
			jm, jp := wrap(j-1, n), wrap(j+1, n)
			// Rows named by their (j, k) offsets: c = 0, m = −1, p = +1.
			cc, mc, pc := row(j, k), row(jm, k), row(jp, k)
			cm, cp := row(j, km), row(j, kp)
			mm, mp, pm, pp := row(jm, km), row(jm, kp), row(jp, km), row(jp, kp)
			b := (k*n + j) * n
			o := out[b : b+n : b+n]
			var f []float64
			if rhs != nil {
				f = rhs[b : b+n : b+n]
			}
			for i := 0; i < n; i++ {
				im, ip := i-1, i+1
				if i == 0 {
					im = n - 1
				}
				if ip == n {
					ip = 0
				}
				// Distance-1 (faces).
				faces := cc[im] + cc[ip] + mc[i] + pc[i] + cm[i] + cp[i]
				// Distance-2 (edges).
				edges := mc[im] + pc[im] + mc[ip] + pc[ip] +
					cm[im] + cp[im] + cm[ip] + cp[ip] +
					mm[i] + mp[i] + pm[i] + pp[i]
				// Distance-3 (corners).
				corners := mm[im] + mp[im] + pm[im] + pp[im] + mm[ip] + mp[ip] + pm[ip] + pp[ip]
				v := w[0]*cc[i] + w[1]*faces + w[2]*edges + w[3]*corners
				if f != nil {
					o[i] = f[i] - v
				} else {
					o[i] += v
				}
			}
		}
	}
}

// wrap folds a neighbour coordinate in [-1, n] onto the periodic
// range [0, n).
func wrap(v, n int) int {
	switch {
	case v < 0:
		return v + n
	case v >= n:
		return v - n
	}
	return v
}

func idx(n, i, j, k int) int { return (k*n+j)*n + i }

// rprj3 restricts rf (level l) to rc (level l+1) by full weighting.
func (m *MG) rprj3(l int) {
	nf, nc := m.n[l], m.n[l+1]
	rf := m.lvl(m.r.Data, l)
	rc := m.lvl(m.r.Data, l+1)
	et := m.env.ExecThreads()
	parallel.For(et, nc, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			k2 := 2 * k
			km, kp := wrap(k2-1, nf), wrap(k2+1, nf)
			for j := 0; j < nc; j++ {
				j2 := 2 * j
				jm, jp := wrap(j2-1, nf), wrap(j2+1, nf)
				for i := 0; i < nc; i++ {
					i2 := 2 * i
					im, ip := wrap(i2-1, nf), wrap(i2+1, nf)
					rc[idx(nc, i, j, k)] = 0.5*rf[idx(nf, i2, j2, k2)] +
						0.25*(rf[idx(nf, im, j2, k2)]+rf[idx(nf, ip, j2, k2)]+
							rf[idx(nf, i2, jm, k2)]+rf[idx(nf, i2, jp, k2)]+
							rf[idx(nf, i2, j2, km)]+rf[idx(nf, i2, j2, kp)])/6.0
				}
			}
		}
	})
	pts := nc * nc * nc
	m.emit("rprj3", rprj3FlopsPerPt, pts, m.stream3(
		trace.Stream{Alloc: m.r.ID(), Bytes: units.Bytes(nf * nf * nf * 8), Kind: trace.Read},
		trace.Stream{Alloc: m.r.ID(), Bytes: units.Bytes(pts * 8), Kind: trace.Write},
	))
}

// interp prolongates u (level l+1) onto u (level l) additively.
func (m *MG) interp(l int) {
	nf, nc := m.n[l], m.n[l+1]
	uf := m.lvl(m.u.Data, l)
	uc := m.lvl(m.u.Data, l+1)
	et := m.env.ExecThreads()
	parallel.For(et, nf, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			kc, ko := k/2, k&1
			kp := wrap(kc+ko, nc)
			for j := 0; j < nf; j++ {
				jc, jo := j/2, j&1
				jp := wrap(jc+jo, nc)
				for i := 0; i < nf; i++ {
					ic, io := i/2, i&1
					ip := wrap(ic+io, nc)
					// Trilinear: average the 2^odd-dims surrounding
					// coarse points (even coordinates inject directly).
					sum := uc[idx(nc, ic, jc, kc)] + uc[idx(nc, ip, jc, kc)] +
						uc[idx(nc, ic, jp, kc)] + uc[idx(nc, ip, jp, kc)] +
						uc[idx(nc, ic, jc, kp)] + uc[idx(nc, ip, jc, kp)] +
						uc[idx(nc, ic, jp, kp)] + uc[idx(nc, ip, jp, kp)]
					uf[idx(nf, i, j, k)] += sum * 0.125
				}
			}
		}
	})
	pts := nf * nf * nf
	m.emit("interp", interpFlopsPerPt, pts, m.stream3(
		trace.Stream{Alloc: m.u.ID(), Bytes: units.Bytes(nc * nc * nc * 8), Kind: trace.Read},
		trace.Stream{Alloc: m.u.ID(), Bytes: units.Bytes(pts * 8), Kind: trace.Update},
	))
}

// zero clears hierarchy array a at level l.
func (m *MG) zero(a []float64, l int) {
	s := m.lvl(a, l)
	for i := range s {
		s[i] = 0
	}
}

// norm2 returns the L2 norm of the finest-level residual.
func (m *MG) norm2() float64 {
	n := m.n[0]
	r := m.lvl(m.r.Data, 0)
	sum := parallel.ReduceFloat64(m.env.ExecThreads(), n*n*n, 0,
		func(_, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += r[i] * r[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	return math.Sqrt(sum / float64(n*n*n))
}

// Run implements workloads.Workload: Iters V-cycles.
func (m *MG) Run(env *workloads.Env) error {
	if m.u == nil {
		return fmt.Errorf("npbmg: Run before Setup")
	}
	m.env = env
	uf := m.lvl(m.u.Data, 0)
	rf := m.lvl(m.r.Data, 0)

	m.resid(uf, m.v.Data, rf, 0)
	m.rnm2 = append(m.rnm2, m.norm2())

	for it, iters := 0, env.Iters(m.Cfg.Iters); it < iters; it++ {
		m.vCycle()
		m.resid(uf, m.v.Data, rf, 0)
		m.rnm2 = append(m.rnm2, m.norm2())
	}
	return nil
}

// vCycle performs one NPB-style V-cycle over the whole hierarchy.
func (m *MG) vCycle() {
	last := m.levels - 1
	// Down: restrict the residual to the coarsest level.
	for l := 0; l < last; l++ {
		m.rprj3(l)
	}
	// Coarsest: u = S r.
	m.zero(m.u.Data, last)
	m.psinv(m.lvl(m.r.Data, last), m.lvl(m.u.Data, last), last)
	// Up: prolongate, correct, smooth.
	for l := last - 1; l >= 0; l-- {
		m.interp(l)
		if l > 0 {
			// Recompute the level residual into r[l] using r[l] as rhs.
			m.resid(m.lvl(m.u.Data, l), m.lvl(m.r.Data, l), m.lvl(m.r.Data, l), l)
		}
		m.psinv(m.lvl(m.r.Data, l), m.lvl(m.u.Data, l), l)
	}
}

// DefaultIterations implements workloads.IterationFamily.
func (m *MG) DefaultIterations() int { return m.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily, mirroring Run and
// vCycle slot by slot. The kernel names repeat across grid levels but
// the shapes differ (per-level sizes), so the schedule is positional:
// the finest resid against the right-hand side (once before the loop
// plus once per V-cycle), then per cycle the down-leg restrictions, the
// coarsest-level smooth, and the up-leg interp/resid/psinv triples in
// vCycle order.
func (m *MG) PhaseSchedule(iters int) []workloads.PhaseCount {
	levels := 0
	for n := m.Cfg.RealN; n >= 4; n /= 2 {
		levels++
	}
	i := int64(iters)
	out := make([]workloads.PhaseCount, 0, 4*levels)
	out = append(out, workloads.PhaseCount{Name: "resid", Count: i + 1})
	for l := 0; l < levels-1; l++ {
		out = append(out, workloads.PhaseCount{Name: "rprj3", Count: i})
	}
	out = append(out, workloads.PhaseCount{Name: "psinv", Count: i})
	for l := levels - 2; l >= 0; l-- {
		out = append(out, workloads.PhaseCount{Name: "interp", Count: i})
		if l > 0 {
			out = append(out, workloads.PhaseCount{Name: "resid", Count: i})
		}
		out = append(out, workloads.PhaseCount{Name: "psinv", Count: i})
	}
	return out
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from (PaperN/RealN)³, never from Env.Scale.
func (m *MG) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only places
// the right-hand-side charge values; the V-cycle grid hierarchy and
// allocation registry never depend on the seed.
func (m *MG) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*MG)(nil)
	_ workloads.ScaleFamily     = (*MG)(nil)
	_ workloads.SeedFamily      = (*MG)(nil)
)

// Verify implements workloads.Workload: the V-cycles must reduce the
// finest-grid residual norm monotonically and substantially.
func (m *MG) Verify() error {
	if len(m.rnm2) < 2 {
		return fmt.Errorf("npbmg: Verify before Run")
	}
	first, last := m.rnm2[0], m.rnm2[len(m.rnm2)-1]
	if first <= 0 {
		return fmt.Errorf("npbmg: initial residual is zero — empty right-hand side")
	}
	for i := 1; i < len(m.rnm2); i++ {
		if m.rnm2[i] > m.rnm2[i-1]*1.0001 {
			return fmt.Errorf("npbmg: residual increased at V-cycle %d: %g -> %g", i, m.rnm2[i-1], m.rnm2[i])
		}
	}
	if last > 0.5*first {
		return fmt.Errorf("npbmg: residual reduced only %g -> %g over %d cycles", first, last, m.Cfg.Iters)
	}
	for _, v := range m.u.Data[:16] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("npbmg: non-finite solution values")
		}
	}
	m.verified = true
	return nil
}

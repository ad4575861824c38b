// Package npbua implements the NPB Unstructured Adaptive mesh benchmark
// analysed in Fig. 10: a Jacobi-relaxed Poisson surrogate over an
// unstructured element graph with periodic adaptivity.
//
// UA's defining property for the paper is its allocation profile: 56
// significant allocations of comparable mid-range size (Table I,
// 7.25 GB), accessed through gather/scatter indirection — the benchmark
// appears lowest on the roofline (Fig. 8) and needs a broad ~69 % of its
// data in HBM for 90 % of its 1.49× speedup because no small subset of
// arrays dominates. The reproduction mirrors that: the mesh is split
// into regions, each owning its solution, residual, right-hand side,
// geometry, connectivity, and work arrays.
package npbua

import (
	"fmt"
	"math"

	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
)

// Regions is the number of mesh regions; each region carries
// ArraysPerRegion tracked allocations, giving the 56 significant
// allocations of Table I.
const (
	Regions         = 8
	ArraysPerRegion = 7 // u, res, rhs, coord, idx, mass, work
)

// Compute-ceiling calibration (Table II: max 1.49×).
const (
	vectorFrac  = 0.30
	smoothEff   = 0.55
	gatherEff   = 0.90 // gather phases are memory/latency-bound
	adaptPeriod = 2    // adapt every N smoothing iterations
)

// Config parameterises the UA workload.
type Config struct {
	// RealElems is the executed element count per region.
	RealElems int
	// SimBytesTotal is the represented total footprint (ua.D: 7.25 GB).
	SimBytesTotal units.Bytes
	// Iters is the number of smoothing iterations.
	Iters int
	// Degree is the number of graph neighbours per element.
	Degree int
}

// DefaultConfig is ua.D at reduced element count.
func DefaultConfig() Config {
	return Config{RealElems: 1 << 15, SimBytesTotal: units.GB(7.25), Iters: 6, Degree: 6}
}

// region bundles one mesh region's arrays.
type region struct {
	u, res, rhs, coord, mass, work *shim.TrackedSlice[float64]
	idx                            *shim.TrackedSlice[int64]
}

// UA is the Unstructured Adaptive mesh workload.
type UA struct {
	Cfg     Config
	regions []*region
	scale   float64

	env      *workloads.Env
	resNorms []float64
}

// New returns a UA workload with the default configuration.
func New() *UA { return &UA{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.ua", "NPB Unstructured Adaptive mesh (ua.D, 7.25 GB simulated, 56 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (w *UA) Name() string { return "npb.ua" }

// ResNorms returns the residual-norm history.
func (w *UA) ResNorms() []float64 { return append([]float64(nil), w.resNorms...) }

// Setup implements workloads.Workload: build the element graph and the
// 56 tracked arrays.
func (w *UA) Setup(env *workloads.Env) error {
	c := w.Cfg
	if c.RealElems < 1024 {
		return fmt.Errorf("npbua: RealElems %d too small", c.RealElems)
	}
	if c.Iters < 1 {
		return fmt.Errorf("npbua: need at least one iteration")
	}
	if c.Degree < 2 || c.Degree > 16 {
		return fmt.Errorf("npbua: degree %d outside [2,16]", c.Degree)
	}
	// Per-region real bytes: 6 float arrays (8B) + idx (8B × degree).
	realPerRegion := c.RealElems * (6*8 + 8*c.Degree)
	w.scale = float64(c.SimBytesTotal) / float64(Regions*realPerRegion)
	if w.scale < 1 {
		w.scale = 1
	}

	w.regions = w.regions[:0]
	n := c.RealElems
	for r := 0; r < Regions; r++ {
		reg := &region{
			u:     shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.u", r), n, w.scale),
			res:   shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.res", r), n, w.scale),
			rhs:   shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.rhs", r), n, w.scale),
			coord: shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.coord", r), n, w.scale),
			mass:  shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.mass", r), n, w.scale),
			work:  shim.Alloc[float64](env.Alloc, fmt.Sprintf("ua.r%d.work", r), n, w.scale),
			idx:   shim.Alloc[int64](env.Alloc, fmt.Sprintf("ua.r%d.idx", r), n*c.Degree, w.scale),
		}
		// Random regular graph: each element's neighbours are a random
		// permutation-derived set (gather indirection, no locality).
		perm := env.RNG.Perm(n)
		for d := 0; d < c.Degree; d++ {
			// Neighbour d of element i is perm[(i + d·7919 + 1) mod n].
			j := (d*7919 + 1) % n
			for i := 0; i < n; i++ {
				reg.idx.Data[i*c.Degree+d] = int64(perm[j])
				if j++; j == n {
					j = 0
				}
			}
		}
		for i := 0; i < n; i++ {
			reg.mass.Data[i] = 1 + 0.5*env.RNG.Float64()
		}
		// Coordinates and the right-hand side depend on the element
		// index alone: every region after the first copies them.
		if r == 0 {
			for i := 0; i < n; i++ {
				reg.coord.Data[i] = float64(i) / float64(n)
				reg.rhs.Data[i] = math.Sin(2 * math.Pi * reg.coord.Data[i])
			}
		} else {
			copy(reg.coord.Data, w.regions[0].coord.Data)
			copy(reg.rhs.Data, w.regions[0].rhs.Data)
		}
		w.regions = append(w.regions, reg)
	}
	w.resNorms = w.resNorms[:0]
	w.env = env
	return nil
}

func (w *UA) simBytes(realBytes int) units.Bytes {
	return units.Bytes(float64(realBytes) * w.scale)
}

// smooth performs one Jacobi relaxation of the graph Laplacian on every
// region: u_new = (rhs + Σ_nbr u[nbr]) / (deg + mass).
func (w *UA) smooth() float64 {
	c := w.Cfg
	deg := float64(c.Degree)
	total := 0.0
	for ri, reg := range w.regions {
		u, res, rhs, mass, work := reg.u.Data, reg.res.Data, reg.rhs.Data, reg.mass.Data, reg.work.Data
		idx := reg.idx.Data
		norm := parallel.ReduceFloat64(w.env.ExecThreads(), c.RealElems, 0,
			func(_, lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					acc := 0.0
					for d := 0; d < c.Degree; d++ {
						acc += u[idx[i*c.Degree+d]]
					}
					nu := (rhs[i] + acc) / (deg + mass[i])
					res[i] = nu - u[i]
					work[i] = nu
					s += res[i] * res[i]
				}
				return s
			}, func(a, b float64) float64 { return a + b })
		copy(u, work)
		total += norm
		// Phase: gather-dominated relaxation over this region.
		eb := c.RealElems * 8
		w.env.Rec.Emit(trace.Phase{
			Name:       fmt.Sprintf("smooth.r%d", ri),
			Threads:    w.env.Threads,
			Flops:      units.Flops(float64(c.RealElems) * w.scale * (deg + 6)),
			VectorFrac: vectorFrac,
			FlopEff:    smoothEff,
			Streams: []trace.Stream{
				// Neighbour gathers: random across the region's solution
				// array, with partial line reuse from mesh numbering
				// locality (~10 DRAM bytes per 8-byte gather).
				{Alloc: reg.u.ID(), Bytes: units.Bytes(float64(c.RealElems) * w.scale * deg * 10),
					Kind: trace.Read, Pattern: trace.Random, WorkingSet: w.simBytes(eb), MLP: 2.2},
				{Alloc: reg.idx.ID(), Bytes: w.simBytes(eb * c.Degree), Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: reg.rhs.ID(), Bytes: w.simBytes(eb), Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: reg.mass.ID(), Bytes: w.simBytes(eb), Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: reg.res.ID(), Bytes: w.simBytes(eb), Kind: trace.Write, Pattern: trace.Sequential},
				{Alloc: reg.work.ID(), Bytes: w.simBytes(eb), Kind: trace.Update, Pattern: trace.Sequential},
			},
		})
	}
	return math.Sqrt(total / float64(Regions*c.RealElems))
}

// adapt mimics mesh adaptivity: regions re-index a slice of their
// elements (touching coordinates and connectivity).
func (w *UA) adapt() {
	c := w.Cfg
	for ri, reg := range w.regions {
		n := c.RealElems
		// Rotate a slice of the index arrays — a cheap but real
		// restructuring of the connectivity.
		cut := n / 8
		for i := 0; i < cut; i++ {
			j := (i + 1) % cut
			for d := 0; d < c.Degree; d++ {
				reg.idx.Data[i*c.Degree+d], reg.idx.Data[j*c.Degree+d] =
					reg.idx.Data[j*c.Degree+d], reg.idx.Data[i*c.Degree+d]
			}
			reg.coord.Data[i] = reg.coord.Data[j]
		}
		eb := c.RealElems * 8
		w.env.Rec.Emit(trace.Phase{
			Name:    fmt.Sprintf("adapt.r%d", ri),
			Threads: w.env.Threads,
			Streams: []trace.Stream{
				{Alloc: reg.idx.ID(), Bytes: w.simBytes(eb * c.Degree / 4), Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: reg.coord.ID(), Bytes: w.simBytes(eb / 4), Kind: trace.Update, Pattern: trace.Sequential},
			},
		})
	}
}

// Run implements workloads.Workload.
func (w *UA) Run(env *workloads.Env) error {
	if len(w.regions) == 0 {
		return fmt.Errorf("npbua: Run before Setup")
	}
	w.env = env
	for it, iters := 0, env.Iters(w.Cfg.Iters); it < iters; it++ {
		w.resNorms = append(w.resNorms, w.smooth())
		if (it+1)%adaptPeriod == 0 {
			w.adapt()
		}
	}
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (w *UA) DefaultIterations() int { return w.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: every iteration
// smooths all regions; adaptivity fires every adaptPeriod-th iteration,
// so its per-region phases carry iters/adaptPeriod (zero below the
// period — those slots stay in place so the schedule lines up across
// the family, and derivation toward a count that needs them refuses
// when the base never recorded an adapt shape).
func (w *UA) PhaseSchedule(iters int) []workloads.PhaseCount {
	out := make([]workloads.PhaseCount, 0, 2*Regions)
	for r := 0; r < Regions; r++ {
		out = append(out, workloads.PhaseCount{Name: fmt.Sprintf("smooth.r%d", r), Count: int64(iters)})
	}
	adapts := int64(iters / adaptPeriod)
	for r := 0; r < Regions; r++ {
		out = append(out, workloads.PhaseCount{Name: fmt.Sprintf("adapt.r%d", r), Count: adapts})
	}
	return out
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from Cfg.SimBytesTotal, never from Env.Scale.
func (w *UA) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only fills
// matrix and vector values; the unstructured-mesh adjacency is built
// deterministically in Setup, so trace shape and allocation registry
// never depend on the seed.
func (w *UA) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*UA)(nil)
	_ workloads.ScaleFamily     = (*UA)(nil)
	_ workloads.SeedFamily      = (*UA)(nil)
)

// Verify implements workloads.Workload: Jacobi on the diagonally
// dominant graph system must reduce the update norm.
func (w *UA) Verify() error {
	if len(w.resNorms) < 2 {
		return fmt.Errorf("npbua: Verify before Run")
	}
	first, last := w.resNorms[0], w.resNorms[len(w.resNorms)-1]
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("npbua: diverged (%g)", last)
	}
	if last > 0.8*first {
		return fmt.Errorf("npbua: weak contraction %g -> %g", first, last)
	}
	return nil
}

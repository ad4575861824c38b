// Package npbis implements the NPB Integer Sort benchmark in the paper's
// modified configuration (Fig. 14, "is.C*"): bucket blocking disabled and
// the working set enlarged to 20 GB, leaving four significant
// allocations — the key array, the rank/histogram array, the key copy
// buffer, and a scan workspace.
//
// The kernel is a real counting sort: histogram build (random updates
// over the full key range), exclusive prefix sum, and rank-directed
// permutation (random writes across the whole output array). With
// blocking disabled these random phases span the entire arrays, which is
// exactly why the paper observes the benchmark stressing random access —
// and why HBM still wins 2.21× through memory-level parallelism on
// independent accesses rather than latency.
package npbis

import (
	"fmt"

	"hmpt/internal/parallel"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/units"
	"hmpt/internal/workloads"
)

// Config parameterises the IS workload.
type Config struct {
	// RealKeys is the executed key count; RealMaxKey the executed key
	// range (both powers of two).
	RealKeys, RealMaxKey int
	// SimKeys / SimMaxKey are the represented sizes (paper: 2^31 keys,
	// 2^30 key range → 8.6 + 8.6 + 4.3 GB ≈ 20 GB with the scan array).
	SimKeys, SimMaxKey int64
	// Iters repeats the ranking (paper: reduced iterations).
	Iters int
}

// DefaultConfig is the paper's enlarged non-blocked is.C* configuration.
func DefaultConfig() Config {
	return Config{
		RealKeys:   1 << 20,
		RealMaxKey: 1 << 14,
		SimKeys:    1 << 31,
		SimMaxKey:  1 << 30,
		Iters:      3,
	}
}

// IS is the Integer Sort workload.
type IS struct {
	Cfg Config

	keys  *shim.TrackedSlice[int32] // key_array
	buff2 *shim.TrackedSlice[int32] // key_buff2 (copy)
	hist  *shim.TrackedSlice[int32] // key_buff1 (histogram / ranks)
	scan  *shim.TrackedSlice[int32] // per-thread scan workspace

	sorted []int32
	counts []int // Verify scratch: per-key balance
	ran    bool

	keyScale, histScale float64
}

// New returns an IS workload with the default configuration.
func New() *IS { return &IS{Cfg: DefaultConfig()} }

func init() {
	workloads.Register("npb.is", "NPB Integer Sort, non-blocked is.C* (20 GB simulated, 4 allocations)",
		func() workloads.Workload { return New() })
}

// Name implements workloads.Workload.
func (s *IS) Name() string { return "npb.is" }

// Setup implements workloads.Workload.
func (s *IS) Setup(env *workloads.Env) error {
	c := s.Cfg
	if c.RealKeys < 1024 || c.RealMaxKey < 16 {
		return fmt.Errorf("npbis: real sizes too small (%d keys, %d range)", c.RealKeys, c.RealMaxKey)
	}
	if c.SimKeys < int64(c.RealKeys) || c.SimMaxKey < int64(c.RealMaxKey) {
		return fmt.Errorf("npbis: simulated sizes below real sizes")
	}
	if c.Iters < 1 {
		return fmt.Errorf("npbis: need at least one iteration")
	}
	s.keyScale = float64(c.SimKeys) / float64(c.RealKeys)
	s.histScale = float64(c.SimMaxKey) / float64(c.RealMaxKey)

	s.keys = shim.Alloc[int32](env.Alloc, "is.key_array", c.RealKeys, s.keyScale)
	s.buff2 = shim.Alloc[int32](env.Alloc, "is.key_buff2", c.RealKeys, s.keyScale)
	s.hist = shim.Alloc[int32](env.Alloc, "is.key_buff1", c.RealMaxKey, s.histScale)
	// Per-thread scan workspace: a fraction of the histogram range.
	s.scan = shim.Alloc[int32](env.Alloc, "is.scan_work", c.RealMaxKey/8, s.histScale)

	// NPB key generation: pseudo-random keys across the range with a
	// central bias (sum of draws), deterministic from the env RNG.
	for i := range s.keys.Data {
		a := env.RNG.Intn(c.RealMaxKey)
		b := env.RNG.Intn(c.RealMaxKey)
		s.keys.Data[i] = int32((a + b) / 2)
	}
	s.ran = false
	return nil
}

func (s *IS) simKeyBytes() units.Bytes  { return units.Bytes(s.Cfg.SimKeys * 4) }
func (s *IS) simHistBytes() units.Bytes { return units.Bytes(s.Cfg.SimMaxKey * 4) }

// Run implements workloads.Workload: Iters rank passes plus the final
// full sort and verification permutation.
func (s *IS) Run(env *workloads.Env) error {
	if s.keys == nil {
		return fmt.Errorf("npbis: Run before Setup")
	}
	c := s.Cfg
	et := env.ExecThreads()
	keys, buff2, hist := s.keys.Data, s.buff2.Data, s.hist.Data

	kb := s.simKeyBytes()
	hb := s.simHistBytes()
	// Histogram updates are random over the full key range, but the NPB
	// key distribution (sum of uniform draws) concentrates mass in the
	// centre of the range, so many updates hit lines kept warm in the
	// caches: DRAM-visible traffic per update is well below a full line.
	randHistTraffic := units.Bytes(c.SimKeys) * 16

	for it, iters := 0, env.Iters(c.Iters); it < iters; it++ {
		// copy_keys: key_buff2 = key_array (streaming).
		parallel.For(et, c.RealKeys, func(_, lo, hi int) {
			copy(buff2[lo:hi], keys[lo:hi])
		})
		env.Rec.Emit(trace.Phase{
			Name: "copy_keys", Threads: env.Threads,
			Streams: []trace.Stream{
				{Alloc: s.keys.ID(), Bytes: kb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: s.buff2.ID(), Bytes: kb, Kind: trace.Write, Pattern: trace.Sequential},
			},
		})

		// rank_hist: histogram over the full key range — random updates.
		for i := range hist {
			hist[i] = 0
		}
		for _, k := range buff2 {
			hist[k]++
		}
		env.Rec.Emit(trace.Phase{
			Name: "rank_hist", Threads: env.Threads,
			Streams: []trace.Stream{
				{Alloc: s.buff2.ID(), Bytes: kb, Kind: trace.Read, Pattern: trace.Sequential},
				{Alloc: s.hist.ID(), Bytes: randHistTraffic, Kind: trace.Update, Pattern: trace.Random, WorkingSet: hb},
			},
		})

		// prefix_sum: exclusive scan of the histogram (streaming), with
		// the per-thread partial workspace.
		sum := int32(0)
		for i := range hist {
			cnt := hist[i]
			hist[i] = sum
			sum += cnt
		}
		env.Rec.Emit(trace.Phase{
			Name: "prefix_sum", Threads: env.Threads,
			Streams: []trace.Stream{
				{Alloc: s.hist.ID(), Bytes: hb, Kind: trace.Update, Pattern: trace.Sequential},
				{Alloc: s.scan.ID(), Bytes: units.Bytes(float64(hb) / 8), Kind: trace.Update, Pattern: trace.Sequential},
			},
		})
	}

	// permute (full_verify in NPB): place each key at its rank — random
	// writes across the whole output range.
	if len(s.sorted) != c.RealKeys {
		s.sorted = make([]int32, c.RealKeys)
	}
	for _, k := range buff2 {
		pos := hist[k]
		hist[k]++
		s.sorted[pos] = k
	}
	env.Rec.Emit(trace.Phase{
		Name: "permute", Threads: env.Threads,
		Streams: []trace.Stream{
			{Alloc: s.buff2.ID(), Bytes: kb, Kind: trace.Read, Pattern: trace.Sequential},
			{Alloc: s.hist.ID(), Bytes: randHistTraffic, Kind: trace.Update, Pattern: trace.Random, WorkingSet: hb},
			// Counting-sort output writes are bucket-local: runs of
			// equal keys land at consecutive ranks, so the store stream
			// behaves like a scattered-but-streaming write.
			{Alloc: s.keys.ID(), Bytes: kb, Kind: trace.Write, Pattern: trace.Stencil},
		},
	})
	s.ran = true
	return nil
}

// DefaultIterations implements workloads.IterationFamily.
func (s *IS) DefaultIterations() int { return s.Cfg.Iters }

// PhaseSchedule implements workloads.IterationFamily: the three ranking
// phases repeat per iteration; the verification permutation runs once
// after the loop regardless of the count.
func (s *IS) PhaseSchedule(iters int) []workloads.PhaseCount {
	i := int64(iters)
	return []workloads.PhaseCount{
		{Name: "copy_keys", Count: i},
		{Name: "rank_hist", Count: i},
		{Name: "prefix_sum", Count: i},
		{Name: "permute", Count: 1},
	}
}

// ScaleInvariant implements workloads.ScaleFamily: simulated sizes come
// from Cfg.SimKeys/SimMaxKey, never from Env.Scale.
func (s *IS) ScaleInvariant() bool { return true }

// SeedInvariant implements workloads.SeedFamily: Env.RNG only draws the
// key *values*; the bucket-sort pass structure reads whole arrays
// through fixed stream descriptors, so trace shape and allocation
// registry never depend on the seed.
func (s *IS) SeedInvariant() bool { return true }

var (
	_ workloads.IterationFamily = (*IS)(nil)
	_ workloads.ScaleFamily     = (*IS)(nil)
	_ workloads.SeedFamily      = (*IS)(nil)
)

// Verify implements workloads.Workload: the permutation must be sorted
// and must preserve the multiset of keys.
func (s *IS) Verify() error {
	if !s.ran {
		return fmt.Errorf("npbis: Verify before Run")
	}
	maxKey := int32(s.Cfg.RealMaxKey)
	if len(s.sorted) != len(s.keys.Data) {
		return fmt.Errorf("npbis: %d sorted keys for %d inputs", len(s.sorted), len(s.keys.Data))
	}
	// Dense per-key balance: +1 per input key, −1 per output key.
	counts := s.counts
	if len(counts) != int(maxKey) {
		counts = make([]int, maxKey)
		s.counts = counts
	}
	clear(counts)
	for i, k := range s.keys.Data {
		if k < 0 || k >= maxKey {
			return fmt.Errorf("npbis: input key %d at %d outside [0, %d)", k, i, maxKey)
		}
		counts[k]++
	}
	prev := int32(-1)
	for i, k := range s.sorted {
		if k < prev {
			return fmt.Errorf("npbis: output not sorted at %d: %d < %d", i, k, prev)
		}
		if k < 0 || k >= maxKey {
			return fmt.Errorf("npbis: output key %d at %d outside [0, %d)", k, i, maxKey)
		}
		prev = k
		counts[k]--
	}
	for k, n := range counts {
		if n != 0 {
			return fmt.Errorf("npbis: key %d count mismatch (%+d)", k, n)
		}
	}
	return nil
}

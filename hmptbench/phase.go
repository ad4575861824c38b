package main

import (
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"hmpt/internal/core"
	"hmpt/internal/ibs"
)

// params sizes a run. The defaults are the benchmark's definition; the
// self-test shrinks them.
type params struct {
	seconds    float64 // wall time one run measures
	segmentOps int     // cold-campaign ops per segment; warm-serve runs 20 times as many
	setupReps  int     // set-ups per run; setup_s is their median
	missKeys   int     // distinct keys one serve-miss daemon serves
	missChecks int     // serve-miss requests re-checked per daemon
	perturb    bool    // corrupt every reference (oracle self-test)
}

// Timed ops are cut into segments of consecutive ops. Every latency and
// rate metric is a median over segments, so one burst of host noise
// moves one segment, not the run, and the benchmark keeps no per-op
// record that would grow the live heap it measures. Each segment holds
// at least 100 ops, so its p90 has at least ten samples beyond it. A
// serve-miss segment is one daemon's lifetime of distinct keys, closed by
// the caller once its answers are re-checked.
func defaultParams(seconds float64) params {
	return params{seconds: seconds, segmentOps: 100, setupReps: 9, missKeys: 399, missChecks: 6}
}

// phase is what one timed region measured: untraced phases give every
// end-to-end figure and the exact counts, traced ones the layer times.
type phase struct {
	attempted, failed int
	segment           int // ops per segment; 0 = the caller closes segments
	cur               segmentAcc
	p50s, p90s, rates []float64            // one per closed segment
	classP50s         map[string][]float64 // per workload served, one per segment
	wall              time.Duration        // summed timed regions
	setups            []float64            // s per set-up
	heapMB            []float64            // live heap after each timed region
	layer             map[string]float64
	err               error // a replay or invariant failure: the run is not correct
	mem               memDelta
}

// segmentAcc accumulates the open segment.
type segmentAcc struct {
	lat   []float64            // ms per op
	cells []int                // cells each op completed correctly
	class map[string][]float64 // ms per op, by workload served
	wall  time.Duration        // timed-region time, loop overhead included
}

func newPhase(segment int) *phase {
	return &phase{segment: segment, layer: map[string]float64{}, classP50s: map[string][]float64{},
		cur: segmentAcc{class: map[string][]float64{}}}
}

// record accounts one timed op: its latency, the timed-region time it
// took, and the cells it completed if its output was correct.
func (p *phase) record(class string, lat, wall time.Duration, cells int, ok bool) {
	p.attempted++
	p.wall += wall
	if !ok {
		cells = 0
		p.failed++
	}
	c := &p.cur
	c.lat = append(c.lat, ms(lat))
	c.cells = append(c.cells, cells)
	c.class[class] = append(c.class[class], ms(lat))
	c.wall += wall
	if p.segment > 0 && len(c.lat) == p.segment {
		p.closeSegment()
	}
}

// more reports whether a timed loop that began at start should run
// another op: until dur is up, and then until the open segment is full,
// but at least one segment.
func (p *phase) more(start time.Time, dur time.Duration) bool {
	return p.attempted == 0 || len(p.cur.lat) > 0 || time.Since(start) < dur
}

// reject turns op i of the open segment into a failure after the fact.
func (p *phase) reject(i int) {
	if p.cur.cells[i] == 0 {
		return
	}
	p.cur.cells[i] = 0
	p.failed++
}

// closeSegment summarises the open segment and starts the next.
func (p *phase) closeSegment() {
	c := &p.cur
	if len(c.lat) == 0 {
		return
	}
	cells := 0
	for _, n := range c.cells {
		cells += n
	}
	p.p50s = append(p.p50s, median(c.lat))
	p.p90s = append(p.p90s, quantile(c.lat, 0.9))
	p.rates = append(p.rates, float64(cells)/c.wall.Seconds())
	for class, lat := range c.class {
		p.classP50s[class] = append(p.classP50s[class], median(lat))
		c.class[class] = lat[:0]
	}
	c.lat, c.cells, c.wall = c.lat[:0], c.cells[:0], 0
}

func (p *phase) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// counters are the program's exact work counters.
type counters struct{ kernels, samples, sweeps, derived, seedDerived, walks int64 }

func readCounters() counters {
	return counters{core.KernelExecutions(), core.SamplePasses(), core.SweepEvaluations(),
		core.DerivedSnapshots(), core.SeedDerivations(), ibs.CountWalks()}
}

func (c counters) sub(o counters) counters {
	return counters{c.kernels - o.kernels, c.samples - o.samples, c.sweeps - o.sweeps,
		c.derived - o.derived, c.seedDerived - o.seedDerived, c.walks - o.walks}
}

func (c counters) plus(o counters) counters {
	return counters{c.kernels + o.kernels, c.samples + o.samples, c.sweeps + o.sweeps,
		c.derived + o.derived, c.seedDerived + o.seedDerived, c.walks + o.walks}
}

// addCounts records per-op exact counts from the counter deltas d over
// ops timed ops.
func (p *phase) addCounts(d counters, ops int) {
	n := float64(max(ops, 1))
	p.layer["core.kernels"] = float64(d.kernels) / n
	p.layer["core.sample_passes"] = float64(d.samples) / n
	p.layer["core.sweep_evals"] = float64(d.sweeps) / n
	p.layer["core.derived"] = float64(d.derived) / n
	p.layer["core.seed_derived"] = float64(d.seedDerived) / n
	p.layer["ibs.count_walks"] = float64(d.walks) / n
}

// memDelta accumulates runtime allocation figures over timed regions.
type memDelta struct {
	allocBytes, gcs, pauseNs uint64
}

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (d *memDelta) add(from *memMark) {
	to := markMem()
	d.allocBytes += to.TotalAlloc - from.TotalAlloc
	d.gcs += uint64(to.NumGC - from.NumGC)
	d.pauseNs += to.PauseTotalNs - from.PauseTotalNs
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// addRuntime records per-op runtime figures of the timed regions and
// the live-heap growth per op over them. In serve-miss every op is a new
// key, so the growth per op is the growth per key.
func (p *phase) addRuntime(heapGrowthMB float64, ops int) {
	n := float64(max(ops, 1))
	p.layer["runtime.alloc_kb_per_op"] = float64(p.mem.allocBytes) / 1024 / n
	p.layer["runtime.gc_cycles_per_op"] = float64(p.mem.gcs) / n
	p.layer["runtime.gc_pause_ms_per_op"] = float64(p.mem.pauseNs) / 1e6 / n
	p.layer["campaign.heap_kb_per_key"] = heapGrowthMB * 1024 / n
}

// mix returns n indices below k in seeded order, every block of k
// holding each index once, so every run serves the same mix.
func mix(rng *rand.Rand, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// tempDir makes a fresh directory under the run's work directory. Its
// owner removes it as soon as the op or daemon that used it is done, so
// every run churns the filesystem at the same steady rate instead of
// leaving one large deletion to whatever runs next.
func tempDir(work string) (string, error) { return os.MkdirTemp(work, "c-") }

package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/trace"
)

// replayOp offsets the op ids of replay spans from the engine ops they
// shadow, so the two aggregate separately.
const replayOp = 1 << 24

// coldBench is the cold-campaign workload: Table I × xeonmax on a fresh
// engine over a fresh, empty snapshot and analysis cache per op.
type coldBench struct {
	work    string
	prm     params
	m       campaign.Matrix
	p       campaign.Platform
	akeys   []core.AnalysisKey
	ref     [][]byte // per cell: core.EncodeAnalysis bytes of the warm-up
	refRows []core.TableRow
}

// newColdBench builds the matrix: every Table I workload with a tuner
// seed drawn from the workload seed.
func newColdBench(work string, seed uint64, prm params) (*coldBench, error) {
	p, err := experiments.PlatformByName("xeonmax")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xC01D))
	b := &coldBench{work: work, prm: prm, p: p, m: campaign.Matrix{Platforms: []campaign.Platform{p}}}
	for _, spec := range experiments.Specs() {
		w := experiments.SpecWorkload(spec, true)
		w.Options.Seed = rng.Uint64() | 1
		b.m.Workloads = append(b.m.Workloads, w)
	}
	return b, nil
}

// op runs one cold campaign in dir and derives Table II from it.
func (b *coldBench) op(dir string, fs faultfs.FS) (*campaign.Result, []core.TableRow, caches, time.Duration, error) {
	start := time.Now()
	c, err := openCaches(dir, fs)
	if err != nil {
		return nil, nil, c, 0, err
	}
	res, err := (&campaign.Engine{Cache: c.snaps, Analyses: c.ans}).Run(b.m)
	if err != nil {
		return nil, nil, c, 0, err
	}
	rows, err := experiments.Table2Campaign(res)
	return res, rows, c, time.Since(start), err
}

// setup runs the untimed warm-up campaigns; the first becomes the
// reference every later op is checked against.
func (b *coldBench) setup() ([]float64, error) {
	var setups []float64
	for i := 0; i < b.prm.setupReps; i++ {
		dir, err := tempDir(b.work)
		if err != nil {
			return nil, err
		}
		res, rows, c, d, err := b.op(dir, nil)
		if err == nil && b.ref == nil {
			err = b.setReference(res, rows, c)
		}
		// A perturbed reference (the oracle self-test) is meant to fail
		// the timed ops, not set-up.
		if err == nil && !b.prm.perturb && !b.matches(res, rows) {
			err = fmt.Errorf("warm-up campaign %d disagrees with the reference", i)
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("cold-campaign warm-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

func (b *coldBench) setReference(res *campaign.Result, rows []core.TableRow, c caches) error {
	for i := range res.Cells {
		cell := &res.Cells[i]
		skey := core.SnapshotKeyFor(cell.Workload, cell.Options)
		akey, err := analysisKey(c, cell.Workload, cell.Options, skey)
		if err != nil {
			return err
		}
		raw, err := core.EncodeAnalysis(akey, cell.Analysis)
		if err != nil {
			return err
		}
		if b.prm.perturb {
			raw[len(raw)/2] ^= 0xff
		}
		b.akeys, b.ref = append(b.akeys, akey), append(b.ref, raw)
	}
	b.refRows = rows
	return nil
}

// analysisKey computes a cell's analysis key; a GroupBy cell needs its
// capture's sites, read back from the cache the engine filled.
func analysisKey(c caches, workload string, opts core.Options, skey trace.SnapshotKey) (core.AnalysisKey, error) {
	if opts.GroupBy == nil {
		return core.AnalysisKeyFor(workload, opts, nil)
	}
	snap, ok, err := c.snaps.Load(skey)
	if err != nil || !ok {
		return core.AnalysisKey{}, fmt.Errorf("capture of %s missing from the cache: %v", workload, err)
	}
	rc, err := core.NewContext(snap)
	if err != nil {
		return core.AnalysisKey{}, err
	}
	return core.AnalysisKeyFor(workload, opts, rc.Sites())
}

// matches is the cold-campaign oracle: Table II rows and every cell's
// encoded analysis equal the warm-up's.
func (b *coldBench) matches(res *campaign.Result, rows []core.TableRow) bool {
	if !reflect.DeepEqual(rows, b.refRows) || len(res.Cells) != len(b.ref) {
		return false
	}
	for i := range res.Cells {
		raw, err := core.EncodeAnalysis(b.akeys[i], res.Cells[i].Analysis)
		if err != nil || !bytes.Equal(raw, b.ref[i]) {
			return false
		}
	}
	return true
}

// run measures cold campaigns for dur. Traced, each op runs with the
// timing filesystem under both caches and is followed by its replay.
func (b *coldBench) run(dur time.Duration, tr *tracer) *phase {
	ph := newPhase(b.prm.segmentOps)
	var engineFS, replayFS *timingFS
	var fs faultfs.FS
	if tr != nil {
		engineFS, replayFS = newTimingFS(tr), newTimingFS(tr)
		fs = engineFS
	}
	var execs, hits, derived, aHits, coal, snapHits, snapMisses int
	heap0 := liveHeapMB()
	c0 := readCounters()
	var last *campaign.Result
	var snapKB float64
	start := time.Now()
	for i := 0; ph.more(start, dur); i++ {
		dir, err := tempDir(b.work)
		if err != nil {
			ph.fail(err)
			break
		}
		tr.setOp(i)
		id := tr.begin("campaign.op")
		m := markMem()
		res, rows, c, d, err := b.op(dir, fs)
		ph.mem.add(m)
		tr.end(id)
		ok := err == nil && b.matches(res, rows)
		ph.record("campaign", d, d, len(b.ref), ok)
		if err == nil {
			last = res
			execs, hits, derived = execs+res.Executions, hits+res.CacheHits, derived+res.Derived
			aHits, coal = aHits+res.AnalysisHits, coal+res.Coalesced
			st := c.snaps.Stats()
			snapHits, snapMisses = snapHits+int(st.Hits), snapMisses+int(st.Misses)
		}
		if tr != nil && err == nil {
			kb, err := b.replay(tr, replayFS, i, c)
			if err != nil {
				ph.fail(fmt.Errorf("cold-campaign replay of op %d: %w", i, err))
			}
			snapKB += kb
		}
		tr.setOp(-1)
		os.RemoveAll(dir)
	}
	n := ph.attempted
	ph.addCounts(readCounters().sub(c0), n)
	ph.heapMB = append(ph.heapMB, liveHeapMB())
	runtime.KeepAlive(last)
	ph.addRuntime(ph.heapMB[0]-heap0, n)
	per := func(x int) float64 { return float64(x) / float64(max(n, 1)) }
	ph.layer["campaign.executions"] = per(execs)
	ph.layer["campaign.cache_hits"] = per(hits)
	ph.layer["campaign.derived"] = per(derived)
	ph.layer["campaign.analysis_hits"] = per(aHits)
	ph.layer["campaign.coalesced"] = per(coal)
	ph.layer["trace.cache_hits"] = per(snapHits)
	ph.layer["trace.cache_misses"] = per(snapMisses)
	if tr != nil {
		engineOps, replayOps := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			engineOps[i], replayOps[replayOp+i] = true, true
		}
		e, r := tr.aggregate(engineOps), tr.aggregate(replayOps)
		fsLayer(ph, e, engineFS, n)
		replayLayer(ph, r, n)
		engineMs := ms(e.total["campaign.op"]) / float64(n)
		var work, checks time.Duration
		for name, d := range r.kids["replay.op"] {
			if checkSpans[name] {
				checks += d
			} else {
				work += d
			}
		}
		ph.layer["campaign.fanout_speedup"] = ms(r.total["replay.op"]-checks) / float64(n) / engineMs
		ph.layer["campaign.residual_ms"] = engineMs - ms(work)/float64(n)
		ph.layer["trace.snapshot_kb"] = snapKB / float64(max(n*len(b.ref), 1))
	}
	return ph
}

// replay redoes op i's cells at Parallelism 1 in a fresh cache tree and
// checks every stored entry is byte-identical to the engine's. It
// returns the encoded snapshot KB it produced.
func (b *coldBench) replay(tr *tracer, fs *timingFS, i int, engine caches) (float64, error) {
	dir, err := tempDir(b.work)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	rc, err := openCaches(dir, fs)
	if err != nil {
		return 0, err
	}
	tr.setOp(replayOp + i)
	var kb float64
	var skeys []trace.SnapshotKey
	var akeys []core.AnalysisKey
	err = tr.do("replay.op", func() error {
		for _, w := range b.m.Workloads {
			skey, akey, size, err := replayCell(tr, rc, w, cellOpts(w, b.p), false)
			if err != nil {
				return err
			}
			skeys, akeys = append(skeys, skey), append(akeys, akey)
			kb += float64(size) / 1024
		}
		return nil
	})
	tr.setOp(-1)
	for j := 0; err == nil && j < len(skeys); j++ {
		err = sameFiles(engine, rc, skeys[j], akeys[j])
	}
	return kb, err
}

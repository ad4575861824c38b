package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/faultfs"
	"hmpt/internal/ibs"
	"hmpt/internal/shim"
	"hmpt/internal/trace"
	"hmpt/internal/workloads"
	"hmpt/internal/xrand"
)

// caches is one on-disk cache tree: a snapshot cache with the analysis
// cache under it, the layout hmptd's -cache flag documents.
type caches struct {
	snaps *trace.SnapshotCache
	ans   *core.AnalysisCache
}

func openCaches(dir string, fs faultfs.FS) (caches, error) {
	sc, err := trace.NewSnapshotCacheFS(dir, fs)
	if err != nil {
		return caches{}, err
	}
	ac, err := core.NewAnalysisCacheFS(filepath.Join(dir, "analyses"), fs)
	if err != nil {
		return caches{}, err
	}
	return caches{snaps: sc, ans: ac}, nil
}

// cellOpts resolves a matrix row's options for one platform the way the
// campaign engine does for a cell.
func cellOpts(w campaign.Workload, p campaign.Platform) core.Options {
	opts := w.Options
	opts.Platform = p.Platform
	opts.Snapshot = nil
	return opts
}

// checkSpans names the spans a replay adds on top of the engine's work:
// standalone codec round trips and count passes that verify the replay.
// They are timed, but excluded when the replay is compared with the
// engine op.
var checkSpans = map[string]bool{
	"trace.snapshot_encode": true, "trace.snapshot_decode": true,
	"core.analysis_encode": true, "core.analysis_decode": true,
	"ibs.recount": true,
}

// replayWork splits the time under replay.op spans into the engine's
// work and the replay's own checks.
func replayWork(r layerTimes) (work, checks time.Duration) {
	for name, d := range r.kids["replay.op"] {
		if checkSpans[name] {
			checks += d
		} else {
			work += d
		}
	}
	return work, checks
}

// replayCell redoes one campaign cell's work at Parallelism 1 through
// the layers' public calls, in the engine's order: analysis-cache probe,
// snapshot-cache probe, family-index lookup, then either a live capture
// (kernel Setup, Run, Verify, trace canonicalisation, sample count) or
// a derivation from the first loadable family member (derive says which
// one the workload expects), snapshot store,
// replay context, analysis and analysis store. Each call is a span.
// It returns the cell's cache keys, so the caller can compare the files
// it stored with the engine's byte for byte, and the encoded snapshot's
// size.
func replayCell(tr *tracer, c caches, w campaign.Workload, opts core.Options, derive bool) (trace.SnapshotKey, core.AnalysisKey, int, error) {
	snapBytes := 0
	skey := core.SnapshotKeyFor(w.Name, opts)
	grouped := opts.GroupBy != nil
	var akey core.AnalysisKey
	probe := func() error {
		return tr.do("core.analysis_load", func() error {
			_, ok, err := c.ans.Load(akey)
			if err == nil && ok {
				err = fmt.Errorf("analysis of %s already cached", w.Name)
			}
			return err
		})
	}
	if !grouped {
		k, err := core.AnalysisKeyFor(w.Name, opts, nil)
		if err != nil {
			return skey, akey, snapBytes, err
		}
		akey = k
		if err := probe(); err != nil {
			return skey, akey, snapBytes, err
		}
	}
	if err := tr.do("trace.cache_load", func() error {
		_, ok, err := c.snaps.Load(skey)
		if ok {
			return fmt.Errorf("snapshot of %s already cached", w.Name)
		}
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	var members []trace.SnapshotKey
	_ = tr.do("trace.family_lookup", func() error {
		members = c.snaps.FamilyMembers(skey)
		return nil
	})

	var base *trace.Snapshot
	for _, nk := range members {
		_ = tr.do("trace.cache_load", func() error {
			s, ok, lerr := c.snaps.Load(nk)
			if lerr == nil && ok {
				base = s
			}
			return nil
		})
		if base != nil {
			break
		}
	}
	if (base != nil) != derive {
		return skey, akey, snapBytes, fmt.Errorf("%s: family base found=%v, workload expects derivation=%v", w.Name, base != nil, derive)
	}
	var snap *trace.Snapshot
	var err error
	if derive {
		err = tr.do("core.derive", func() error {
			snap, err = core.DeriveSnapshot(base, w.Factory(), opts)
			return err
		})
		if err == nil {
			err = recount(tr, snap)
		}
	} else {
		err = tr.do("core.capture", func() error {
			snap, err = capture(tr, w.Factory(), skey)
			return err
		})
	}
	if err != nil {
		return skey, akey, snapBytes, err
	}

	var raw []byte
	if err := tr.do("trace.snapshot_encode", func() error {
		raw, err = snap.EncodeBytes()
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	snapBytes = len(raw)
	if err := tr.do("trace.snapshot_decode", func() error {
		_, err := trace.DecodeSnapshotBytes(raw)
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	if err := tr.do("trace.cache_store", func() error { return c.snaps.Store(skey, snap) }); err != nil {
		return skey, akey, snapBytes, err
	}
	var rc *core.ReplayContext
	if err := tr.do("core.context", func() error {
		rc, err = core.NewContext(snap)
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	if grouped {
		if akey, err = core.AnalysisKeyFor(w.Name, opts, rc.Sites()); err != nil {
			return skey, akey, snapBytes, err
		}
		if err := probe(); err != nil {
			return skey, akey, snapBytes, err
		}
	}
	var an *core.Analysis
	if err := tr.do("core.analyze", func() error {
		an, err = core.NewContextReplay(rc, opts).Analyze()
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	var araw []byte
	if err := tr.do("core.analysis_encode", func() error {
		araw, err = core.EncodeAnalysis(akey, an)
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	if err := tr.do("core.analysis_decode", func() error {
		_, _, err := core.DecodeAnalysis(araw)
		return err
	}); err != nil {
		return skey, akey, snapBytes, err
	}
	err = tr.do("core.analysis_store", func() error { return c.ans.Store(akey, an) })
	return skey, akey, snapBytes, err
}

// capture is core.CaptureContext spelled out through the workload,
// trace and ibs calls, one span per stage.
func capture(tr *tracer, w workloads.Workload, k trace.SnapshotKey) (*trace.Snapshot, error) {
	envSeed := xrand.New(k.Seed).Split(1).Uint64()
	env := workloads.NewEnv(k.Threads, k.Scale, envSeed)
	env.Iterations = k.Iterations
	if err := tr.do("workloads.setup", func() error { return w.Setup(env) }); err != nil {
		return nil, err
	}
	if err := tr.do("workloads.run", func() error { return w.Run(env) }); err != nil {
		return nil, err
	}
	if err := tr.do("workloads.verify", w.Verify); err != nil {
		return nil, err
	}
	var canon *trace.Trace
	_ = tr.do("trace.canonical", func() error {
		canon = env.Rec.Trace().Canonical()
		return nil
	})
	var counts *trace.SampleCounts
	err := tr.do("ibs.count", func() error {
		var err error
		counts, err = (&ibs.Sampler{Period: k.SamplePeriod, MaxSamples: int(k.SampleBudget)}).Counts(canon, env.Alloc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &trace.Snapshot{
		Meta: trace.Meta{
			Workload: w.Name(), Config: k.Config, Threads: k.Threads, Scale: k.Scale,
			Seed: k.Seed, EnvSeed: envSeed, SimBytes: env.Alloc.TotalSimBytes(),
			SamplePeriod: k.SamplePeriod, SampleBudget: int(k.SampleBudget), Iterations: k.Iterations,
		},
		Registry: env.Alloc.Export(),
		Trace:    canon,
		Samples:  counts,
	}, nil
}

// recount times a standalone count pass over a derived snapshot (the
// pass core.DeriveSnapshot runs inside) and checks it reproduces the
// embedded counts.
func recount(tr *tracer, snap *trace.Snapshot) error {
	al, err := shim.Restore(snap.Registry)
	if err != nil {
		return err
	}
	var counts *trace.SampleCounts
	if err := tr.do("ibs.recount", func() error {
		s := &ibs.Sampler{Period: snap.Meta.SamplePeriod, MaxSamples: snap.Meta.SampleBudget}
		counts, err = s.Counts(snap.Trace, al)
		return err
	}); err != nil {
		return err
	}
	if !reflect.DeepEqual(counts, snap.Samples) {
		return fmt.Errorf("count pass over derived %s disagrees with its embedded counts", snap.Meta.Workload)
	}
	return nil
}

// sameFiles reports whether two cache trees hold byte-identical entries
// for the cell's snapshot and analysis.
func sameFiles(a, b caches, skey trace.SnapshotKey, akey core.AnalysisKey) error {
	for _, p := range [][2]string{{a.snaps.Path(skey), b.snaps.Path(skey)}, {a.ans.Path(akey), b.ans.Path(akey)}} {
		x, err := os.ReadFile(p[0])
		if err != nil {
			return err
		}
		y, err := os.ReadFile(p[1])
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("replayed cache entry %s differs from the engine's", filepath.Base(p[1]))
		}
	}
	return nil
}

package campaign_test

import (
	"testing"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/shim"
)

// TestEngineAnalysisKeysMatchAnalysisKeyFor pins the engine's analysis
// keys, which it builds from the capture IDs and platform fingerprints
// it has already hashed, to core.AnalysisKeyFor: for every Table I spec
// on both platform presets, at both sizes, an analysis stored under
// AnalysisKeyFor's key must be the one the engine serves. Cells without
// a GroupBy policy are then served in stage 0, before any capture; the
// GroupBy cells capture once and find their entry in stage 2.
func TestEngineAnalysisKeysMatchAnalysisKeyFor(t *testing.T) {
	var platforms []campaign.Platform
	for _, name := range experiments.PlatformNames() {
		p, err := experiments.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p)
	}
	for _, fast := range []bool{true, false} {
		size := "full"
		if fast {
			size = "fast"
		}
		t.Run(size, func(t *testing.T) {
			cache, err := core.NewAnalysisCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m := campaign.Matrix{Platforms: platforms}
			wantKernels := 0
			for _, spec := range experiments.Specs() {
				w := experiments.SpecWorkload(spec, fast)
				m.Workloads = append(m.Workloads, w)
				var sites []shim.SiteGroup
				if w.Options.GroupBy != nil {
					sites = captureSites(t, w)
					wantKernels++
				}
				for _, p := range platforms {
					opts := w.Options
					opts.Platform = p.Platform
					key, err := core.AnalysisKeyFor(w.Name, opts, sites)
					if err != nil {
						t.Fatal(err)
					}
					stored := &core.Analysis{Workload: w.Name, Platform: "stored:" + p.Name, Runs: 3}
					if err := cache.Store(key, stored); err != nil {
						t.Fatal(err)
					}
				}
			}
			kernels := core.KernelExecutions()
			res, err := (&campaign.Engine{Analyses: cache}).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cells {
				if c.Err != nil {
					t.Errorf("%s on %s: %v", c.Workload, c.Platform, c.Err)
					continue
				}
				if !c.AnalysisFromCache || c.Analysis.Platform != "stored:"+c.Platform {
					t.Errorf("%s on %s: the engine did not probe AnalysisKeyFor's key (from cache %v, analysis of %q)",
						c.Workload, c.Platform, c.AnalysisFromCache, c.Analysis.Platform)
				}
			}
			if got := core.KernelExecutions() - kernels; got != int64(wantKernels) {
				t.Errorf("run executed %d kernels, want %d (the GroupBy captures only)", got, wantKernels)
			}
		})
	}
}

// captureSites returns the site groups of the workload's capture, the
// input AnalysisKeyFor needs for a GroupBy policy.
func captureSites(t *testing.T, w campaign.Workload) []shim.SiteGroup {
	t.Helper()
	snap, err := core.Capture(w.Factory(), w.Options)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := core.NewContext(snap)
	if err != nil {
		t.Fatal(err)
	}
	return rc.Sites()
}

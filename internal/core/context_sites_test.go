package core_test

import (
	"reflect"
	"sync"
	"testing"

	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/memsim"
	"hmpt/internal/shim"
)

// TestContextSitesSurviveAnalysis: a context hands every caller one
// shared slice of site groups. kwave's GroupBy analyses (which pre-group
// straight from those groups) and key derivations, run concurrently on
// both platform presets, must leave it equal to a freshly built
// Allocator.Sites() of the capture's registry.
func TestContextSitesSurviveAnalysis(t *testing.T) {
	spec, err := experiments.SpecFor("kwave")
	if err != nil {
		t.Fatal(err)
	}
	w := experiments.SpecWorkload(spec, true)
	if w.Options.GroupBy == nil {
		t.Fatal("kwave spec lost its GroupBy policy; this test needs one")
	}
	snap, err := core.Capture(w.Factory(), w.Options)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := core.NewContext(snap)
	if err != nil {
		t.Fatal(err)
	}
	platforms := []*memsim.Platform{memsim.XeonMax9468(), memsim.DualXeonMax9468()}
	var wg sync.WaitGroup
	errs := make([]error, 2*len(platforms))
	for i, p := range platforms {
		opts := w.Options
		opts.Platform = p
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, errs[2*i] = core.NewContextReplay(rc, opts).Analyze()
		}()
		go func() {
			defer wg.Done()
			_, errs[2*i+1] = core.AnalysisKeyFor(w.Name, opts, rc.Sites())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	al, err := shim.Restore(snap.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := al.Sites(); !reflect.DeepEqual(rc.Sites(), fresh) {
		t.Fatalf("shared sites changed under analysis:\n got %+v\nwant %+v", rc.Sites(), fresh)
	}
}

package npbis

import (
	"testing"

	"hmpt/internal/trace"
	"hmpt/internal/workloads"
)

func runIS(t *testing.T) (*IS, *workloads.Env) {
	t.Helper()
	s := &IS{Cfg: Config{RealKeys: 1 << 14, RealMaxKey: 1 << 10, SimKeys: 1 << 31, SimMaxKey: 1 << 30, Iters: 2}}
	env := workloads.NewEnv(0, 1, 9)
	if err := s.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(env); err != nil {
		t.Fatal(err)
	}
	return s, env
}

func TestISSortsCorrectly(t *testing.T) {
	s, _ := runIS(t)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestISFootprint(t *testing.T) {
	_, env := runIS(t)
	gb := env.Alloc.TotalSimBytes().GBs()
	if gb < 18 || gb > 24 {
		t.Errorf("footprint %.2f GB outside [18,24] (paper: 20)", gb)
	}
	if got := len(env.Alloc.All()); got != 4 {
		t.Errorf("allocations = %d, want 4", got)
	}
}

func TestISEmitsRandomPhases(t *testing.T) {
	s, env := runIS(t)
	tr := env.Rec.Trace()
	randHist := false
	for _, ph := range tr.Phases {
		for _, st := range ph.Streams {
			if st.Alloc == s.hist.ID() && st.Pattern == trace.Random {
				randHist = true
				if st.WorkingSet == 0 {
					t.Error("random histogram stream must declare its working set")
				}
			}
		}
	}
	if !randHist {
		t.Error("no random histogram updates in the trace")
	}
}

func TestISSetupErrors(t *testing.T) {
	env := workloads.NewEnv(0, 1, 1)
	for _, cfg := range []Config{
		{RealKeys: 10, RealMaxKey: 1 << 10, SimKeys: 1 << 31, SimMaxKey: 1 << 30, Iters: 1},
		{RealKeys: 1 << 14, RealMaxKey: 1 << 10, SimKeys: 1, SimMaxKey: 1 << 30, Iters: 1},
		{RealKeys: 1 << 14, RealMaxKey: 1 << 10, SimKeys: 1 << 31, SimMaxKey: 1 << 30, Iters: 0},
	} {
		s := &IS{Cfg: cfg}
		if err := s.Setup(env); err == nil {
			t.Errorf("Setup(%+v) should fail", cfg)
		}
	}
}

// TestISVerifyRejects checks every failure Verify guards against: an
// unsorted or truncated output, keys outside the range on either side,
// and an output that is sorted but not a permutation of the input.
func TestISVerifyRejects(t *testing.T) {
	for name, corrupt := range map[string]func(s *IS){
		"unsorted":          func(s *IS) { s.sorted[0], s.sorted[len(s.sorted)-1] = s.sorted[len(s.sorted)-1], s.sorted[0] },
		"short output":      func(s *IS) { s.sorted = s.sorted[:len(s.sorted)-1] },
		"input above range": func(s *IS) { s.keys.Data[3] = int32(s.Cfg.RealMaxKey) },
		"negative input":    func(s *IS) { s.keys.Data[3] = -1 },
		"output above range": func(s *IS) {
			s.sorted[len(s.sorted)-1] = int32(s.Cfg.RealMaxKey)
		},
		"negative output": func(s *IS) { s.sorted[0] = -1 },
		"not a permutation": func(s *IS) {
			// Raise the last key of the first run to the next key: the
			// output stays sorted but one key is counted twice.
			i := 0
			for s.sorted[i] == s.sorted[i+1] {
				i++
			}
			s.sorted[i] = s.sorted[i+1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, _ := runIS(t)
			if err := s.Verify(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			corrupt(s)
			if err := s.Verify(); err == nil {
				t.Errorf("Verify accepted %s", name)
			}
		})
	}
}

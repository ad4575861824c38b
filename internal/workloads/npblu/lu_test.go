package npblu

import (
	"math"
	"testing"

	"hmpt/internal/workloads"
)

func TestLUConverges(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 6}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := l.Run(env); err != nil {
		t.Fatal(err)
	}
	t.Logf("error norms: %v", l.ErrNorms())
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLUFootprintAndAllocs(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 1}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Alloc.All()); got != 7 {
		t.Errorf("allocations = %d, want 7", got)
	}
	gb := env.Alloc.TotalSimBytes().GBs()
	if gb < 7.5 || gb > 10.5 {
		t.Errorf("simulated footprint %.2f GB outside [7.5,10.5] (paper: 8.65)", gb)
	}
}

// TestLUResidDominates checks the paper's LU observation: the residual
// allocation (~25-30 % of the footprint) carries the dominant traffic.
func TestLUResidDominates(t *testing.T) {
	l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 4}}
	env := workloads.NewEnv(0, 1, 5)
	if err := l.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := l.Run(env); err != nil {
		t.Fatal(err)
	}
	by := env.Rec.Trace().BytesByAlloc()
	rsd := by[l.rsd.ID()]
	var total, maxOther int64
	for id, b := range by {
		total += int64(b)
		if id != l.rsd.ID() && int64(b) > maxOther {
			maxOther = int64(b)
		}
	}
	if int64(rsd) <= maxOther {
		t.Errorf("rsd traffic %d not dominant (max other %d)", rsd, maxOther)
	}
	if frac := float64(rsd) / float64(total); frac < 0.4 {
		t.Errorf("rsd traffic fraction %.2f below 0.4", frac)
	}
}

func TestLUSetupErrors(t *testing.T) {
	env := workloads.NewEnv(0, 1, 1)
	for _, cfg := range []Config{
		{RealN: 4, PaperN: 408, Iters: 1},
		{RealN: 16, PaperN: 8, Iters: 1},
		{RealN: 16, PaperN: 408, Iters: 0},
	} {
		l := &LU{Cfg: cfg}
		if err := l.Setup(env); err == nil {
			t.Errorf("Setup(%+v) should fail", cfg)
		}
	}
}

// TestLUSweepsThreadIndependent checks that the SSOR sweeps leave
// bit-identical state at every thread count: the backward sweep's plane
// copy reproduces the one-thread Gauss–Seidel order.
func TestLUSweepsThreadIndependent(t *testing.T) {
	run := func(threads int) *LU {
		l := &LU{Cfg: Config{RealN: 16, PaperN: 408, Iters: 3}}
		env := workloads.NewEnv(threads, 1, 5)
		if err := l.Setup(env); err != nil {
			t.Fatal(err)
		}
		if err := l.Run(env); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ref := run(1)
	for _, threads := range []int{2, 3, 4} {
		got := run(threads)
		for name, pair := range map[string][2][]float64{
			"u": {ref.u.Data, got.u.Data}, "rsd": {ref.rsd.Data, got.rsd.Data},
			"jac_l": {ref.jacL.Data, got.jacL.Data}, "jac_u": {ref.jacU.Data, got.jacU.Data},
			"err norms": {ref.errNorms, got.errNorms},
		} {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("%d threads: %s[%d] = %v, one thread %v", threads, name, i, pair[1][i], pair[0][i])
				}
			}
		}
	}
}

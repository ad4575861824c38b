package workloads

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// dupSeq gives each run of TestRegistryDuplicatePanics its own name in
// the process-wide registry, so the test repeats under -count and -cpu.
var dupSeq atomic.Int64

func TestRegistryDuplicatePanics(t *testing.T) {
	name := fmt.Sprintf("registry_test.unique.%d", dupSeq.Add(1))
	Register(name, "test entry", nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(name, "again", nil)
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("registry_test.missing"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestEnvDefaults(t *testing.T) {
	env := NewEnv(0, 0, 1)
	if env.Scale != 1 {
		t.Errorf("default scale = %g", env.Scale)
	}
	if env.Alloc == nil || env.Rec == nil || env.RNG == nil {
		t.Error("env components missing")
	}
	if env.ExecThreads() < 1 {
		t.Errorf("exec threads = %d", env.ExecThreads())
	}
	env2 := NewEnv(4, 2, 1)
	if env2.ExecThreads() > 4 {
		t.Errorf("exec threads %d exceed requested 4", env2.ExecThreads())
	}
}

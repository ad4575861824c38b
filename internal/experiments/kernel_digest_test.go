package experiments

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hmpt/internal/workloads"
)

// kernelDigests pins the final state every Table I kernel leaves behind
// at its Fast configuration with one execution thread and the spec's
// seed as the environment seed: the contents of every shim-tracked
// slice the workload holds, its recorded norm history and the phase
// trace it emitted. A kernel optimisation must evaluate the same
// floating-point expressions in the same order, so these digests never
// change with one; a change here means the arithmetic moved.
var kernelDigests = map[string]string{
	"npb.mg": "fnv64a:30b86926af23233d",
	"npb.bt": "fnv64a:f367b7d9ad04ab48",
	"npb.lu": "fnv64a:8cd3d322f3ac8d3f",
	"npb.sp": "fnv64a:ac32184a4d48df2b",
	"npb.ua": "fnv64a:ae4d4bcfcbdf2dd4",
	"npb.is": "fnv64a:1fd06bdea94f1708",
	"kwave":  "fnv64a:6536655376877490",
}

// normFields names the per-workload history Run records and Verify
// judges; it is part of the pinned state alongside the tracked slices.
var normFields = map[string][]string{
	"npb.mg": {"rnm2"},
	"npb.bt": {"errNorms"},
	"npb.lu": {"errNorms"},
	"npb.sp": {"errNorms"},
	"npb.ua": {"resNorms"},
	"npb.is": {"sorted"},
	"kwave":  {"energy"},
}

func TestKernelStateDigests(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			w := spec.Fast()
			env := workloads.NewEnv(1, 1, spec.Options.Seed)
			if err := w.Setup(env); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(env); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
			got := kernelStateDigest(t, w, env, normFields[spec.Name])
			if want, ok := kernelDigests[spec.Name]; !ok || got != want {
				t.Errorf("%s final-state digest %s, pinned %q", spec.Name, got, want)
			}
		})
	}
}

// kernelStateDigest hashes the workload's tracked slices (ordered by
// allocation label), the named norm fields and the emitted trace.
func kernelStateDigest(t *testing.T, w workloads.Workload, env *workloads.Env, norms []string) string {
	t.Helper()
	root := reflect.ValueOf(w).Elem()
	tracked := map[string]reflect.Value{}
	collectTracked(root, tracked)
	if n := len(env.Alloc.All()); len(tracked) != n {
		t.Fatalf("%s: found %d tracked slices, allocator registered %d", w.Name(), len(tracked), n)
	}
	labels := make([]string, 0, len(tracked))
	for l := range tracked {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		hashSlice(h, tracked[l])
	}
	if len(norms) == 0 {
		t.Fatalf("%s has no norm fields listed", w.Name())
	}
	for _, name := range norms {
		f := root.FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Slice || f.Len() == 0 {
			t.Fatalf("%s: norm field %q missing or empty", w.Name(), name)
		}
		h.Write([]byte(name))
		hashSlice(h, f)
	}
	for _, p := range env.Rec.Trace().Phases {
		h.Write([]byte(p.Name))
		putU64(h, uint64(p.Threads), math.Float64bits(float64(p.Flops)),
			math.Float64bits(p.VectorFrac), math.Float64bits(p.FlopEff), uint64(p.Repeat))
		for _, s := range p.Streams {
			putU64(h, uint64(s.Alloc), uint64(s.Bytes), uint64(s.Kind), uint64(s.Pattern),
				uint64(s.WorkingSet), math.Float64bits(s.MLP))
		}
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// collectTracked finds every *shim.TrackedSlice reachable from v through
// struct fields and slices of struct pointers (UA's regions), keyed by
// allocation label. Plain slices — scratch buffers, grids — are not
// tracked state and are skipped.
func collectTracked(v reflect.Value, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Pointer && isTrackedSlice(f.Type().Elem()):
			if !f.IsNil() {
				label := f.Elem().FieldByName("Rec").Elem().FieldByName("Label").String()
				out[label] = f.Elem().FieldByName("Data")
			}
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Pointer &&
			f.Type().Elem().Elem().Kind() == reflect.Struct:
			for j := 0; j < f.Len(); j++ {
				if !f.Index(j).IsNil() {
					collectTracked(f.Index(j).Elem(), out)
				}
			}
		}
	}
}

func isTrackedSlice(t reflect.Type) bool {
	return t.Kind() == reflect.Struct && t.PkgPath() == "hmpt/internal/shim" &&
		strings.HasPrefix(t.Name(), "TrackedSlice[")
}

// hashSlice writes the length and every element's bit pattern.
func hashSlice(h hash.Hash64, s reflect.Value) {
	putU64(h, uint64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		e := s.Index(i)
		switch e.Kind() {
		case reflect.Float64:
			putU64(h, math.Float64bits(e.Float()))
		case reflect.Complex128:
			c := e.Complex()
			putU64(h, math.Float64bits(real(c)), math.Float64bits(imag(c)))
		case reflect.Int, reflect.Int32, reflect.Int64:
			putU64(h, uint64(e.Int()))
		default:
			panic("kernel digest: unsupported element kind " + e.Kind().String())
		}
	}
}

func putU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

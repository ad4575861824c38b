// Command hmptbench is hmpt's benchmark: one process drives hmpt through
// its public Go entry points — campaign.Engine.Run, and hmptd's handler
// over loopback HTTP — checks the output of every op, and prints every
// metric by name with its unit.
//
// Usage, from the root of a checkout:
//
//	bash hmptbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	cold-campaign  Table I × xeonmax on a fresh engine with fresh, empty
//	               snapshot and analysis caches per op (7 kernels per op)
//	serve-miss     hmptd with -cache, every request a Table I workload
//	               under a seed the daemon has never seen (derivations)
//	warm-serve     the same daemon serving the Table I mix from its memo
//
// BENCHMARK.json lists cold-campaign and warm-serve. serve-miss is run by
// hand: about half its op time is file creation in the cache tree, and
// on a 2-vCPU VM over a shared virtual disk its medians drifted by 13 %
// (p50) to 22 % (p90) between runs minutes apart, more than a regression
// bound can absorb.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it first repeats the untraced measurement for a third of the time (the
// exact counts and runtime figures come from there), then traces the
// rest: spans at every layer boundary, kept in memory and written to
// --spans-dir when the run ends, give the per-layer metrics and the
// tracing overhead. No end-to-end number comes from a traced phase.
//
// Every run fixes GOMAXPROCS to 1, no more than any host's nproc, and
// loads the program with one closed-loop client, since callers wait for
// their analysis. The last line of standard output is the result; the
// line before it is the detail record: host block, sample counts,
// dropped metrics with their reasons, and the traced run's accounting.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gomaxprocs is the one GOMAXPROCS every run uses.
const gomaxprocs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads the program runs.
var workloadNames = []string{"cold-campaign", "serve-miss", "warm-serve"}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("hmptbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fset.Uint64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := fset.Float64("seconds", 10, "wall time one run measures")
	traced := fset.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workDir := fset.String("work-dir", filepath.Join(".bench_build", "work"), "directory for the run's cache trees")
	spansDir := fset.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, detail, err := bench(*name, *seed, *traced == 1, *workDir, *spansDir, defaultParams(*seconds))
	if err != nil {
		fmt.Fprintln(stderr, "hmptbench:", err)
		return 1
	}
	d, err := json.Marshal(detail)
	if err != nil {
		fmt.Fprintln(stderr, "hmptbench:", err)
		return 1
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hmptbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "detail %s\n%s\n", d, r)
	return 0
}

// runner measures one phase of a workload.
type runner func(dur time.Duration, tr *tracer, setupReps int) (*phase, error)

func newRunner(name, work string, seed uint64, prm params) (runner, error) {
	switch name {
	case "cold-campaign":
		b, err := newColdBench(work, seed, prm)
		if err != nil {
			return nil, err
		}
		return func(dur time.Duration, tr *tracer, reps int) (*phase, error) {
			b.prm.setupReps = reps
			setups, err := b.setup()
			if err != nil {
				return nil, err
			}
			ph := b.run(dur, tr)
			ph.setups = setups
			return ph, nil
		}, nil
	case "serve-miss", "warm-serve":
		b, err := newServeBench(work, seed, prm, name == "serve-miss")
		if err != nil {
			return nil, err
		}
		return b.run, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// bench runs one workload and assembles its result and detail record.
func bench(name string, seed uint64, traced bool, workDir, spansDir string, prm params) (*result, map[string]any, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	run, err := newRunner(name, work, seed, prm)
	if err != nil {
		return nil, nil, err
	}
	full := time.Duration(prm.seconds * float64(time.Second))
	detail := map[string]any{"workload": name}

	if !traced {
		ph, err := run(full, nil, prm.setupReps)
		if err != nil {
			return nil, nil, err
		}
		detail["host"] = hostBlock(seed, ph.attempted)
		detail["samples"] = sampleInfo(ph)
		warnIncorrect(ph.err)
		return &result{
			Correct:   ph.err == nil && ph.failed == 0,
			Attempted: ph.attempted,
			Failed:    ph.failed,
			Metrics:   endToEnd(ph),
		}, detail, nil
	}

	plain, err := run(full/3, nil, 1)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	tp, err := run(full-full/3, tr, 1)
	if err != nil {
		return nil, nil, err
	}
	layer := tp.layer
	// Exact counts and runtime figures come from the untraced phase.
	for k, v := range plain.layer {
		layer[k] = v
	}
	p50, tp50 := median(plain.p50s), median(tp.p50s)
	layer["bench.trace_overhead_pct"] = (tp50 - p50) / p50 * 100
	metrics := map[string]metric{}
	dropped := map[string]string{}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			reason := dropReasons[name][m.name]
			if reason == "" {
				reason = "not measured on this workload"
			}
			dropped[m.name] = reason
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, nil, err
	}
	spans := filepath.Join(spansDir, name+".jsonl")
	if err := tr.write(spans); err != nil {
		return nil, nil, err
	}
	detail["host"] = hostBlock(seed, plain.attempted+tp.attempted)
	detail["samples"] = map[string]any{"untraced": sampleInfo(plain), "traced": sampleInfo(tp)}
	detail["dropped"] = dropped
	detail["op_p50_ms"] = map[string]float64{"untraced": p50, "traced": tp50}
	detail["spans"] = spans
	warnIncorrect(plain.err)
	warnIncorrect(tp.err)
	return &result{
		Correct:   plain.err == nil && tp.err == nil && plain.failed == 0 && tp.failed == 0,
		Attempted: plain.attempted + tp.attempted,
		Failed:    plain.failed + tp.failed,
		Metrics:   metrics,
	}, detail, nil
}

// warnIncorrect prints a phase's correctness failure; the run still
// reports, with correct=false on its result line.
func warnIncorrect(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmptbench: incorrect:", err)
	}
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase) map[string]metric {
	okFrac := 0.0
	if ph.attempted > 0 {
		okFrac = float64(ph.attempted-ph.failed) / float64(ph.attempted)
	}
	return map[string]metric{
		"op_p50_ms":    {median(ph.p50s), "ms"},
		"op_p90_ms":    {median(ph.p90s), "ms"},
		"cells_per_s":  {median(ph.rates), "1/s"},
		"ok_frac":      {okFrac, "ratio"},
		"setup_s":      {median(ph.setups), "s"},
		"live_heap_mb": {median(ph.heapMB), "MB"},
	}
}

func sampleInfo(ph *phase) map[string]any {
	byClass := map[string]float64{}
	for class, p50s := range ph.classP50s {
		byClass[class] = median(p50s)
	}
	perSeg := ph.attempted / max(len(ph.p50s), 1)
	return map[string]any{
		"segments":               len(ph.p50s),
		"ops_per_segment":        perSeg,
		"p50_ms_by_workload":     byClass,
		"timed_ops":              ph.attempted,
		"beyond_p90_per_segment": perSeg - (perSeg*9+9)/10,
		"setups":                 len(ph.setups),
		"heap_readings":          len(ph.heapMB),
		"timed_s":                ph.wall.Seconds(),
	}
}

// hostBlock records where and how a result was taken.
func hostBlock(seed uint64, ops int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       seed,
		"timed_ops":  ops,
		"revision":   revision(),
		"clients":    1,
		"load_model": "closed loop",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision names the source measured: the git commit when the checkout
// is a repository, else a digest of every Go source and go.mod in it.
func revision() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
			return "git:" + r
		}
		return "git:" + ref
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

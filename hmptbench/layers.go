package main

import (
	"time"
)

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order, with its unit.
var perLayer = []struct{ name, unit string }{
	{"workloads.setup_ms", "ms"}, {"workloads.run_ms", "ms"}, {"workloads.verify_ms", "ms"},
	{"trace.canonical_ms", "ms"}, {"trace.snapshot_encode_ms", "ms"}, {"trace.snapshot_decode_ms", "ms"},
	{"trace.snapshot_kb", "KB"}, {"trace.cache_load_ms", "ms"}, {"trace.cache_store_ms", "ms"},
	{"trace.family_lookup_ms", "ms"}, {"trace.cache_hits", "count"}, {"trace.cache_misses", "count"},
	{"ibs.count_ms", "ms"}, {"ibs.count_walks", "count"},
	{"core.capture_self_ms", "ms"}, {"core.derive_ms", "ms"}, {"core.context_ms", "ms"},
	{"core.analyze_ms", "ms"}, {"core.analysis_encode_ms", "ms"}, {"core.analysis_decode_ms", "ms"},
	{"core.analysis_store_ms", "ms"}, {"core.analysis_load_ms", "ms"},
	{"core.kernels", "count"}, {"core.sample_passes", "count"}, {"core.sweep_evals", "count"},
	{"core.derived", "count"}, {"core.seed_derived", "count"},
	{"fsatomic.read_ms", "ms"}, {"fsatomic.write_ms", "ms"}, {"fsatomic.rename_ms", "ms"},
	{"fsatomic.readdir_ms", "ms"}, {"fsatomic.ops", "count"}, {"fsatomic.kb_read", "KB"},
	{"fsatomic.kb_written", "KB"},
	{"campaign.fanout_speedup", "x"}, {"campaign.residual_ms", "ms"}, {"campaign.executions", "count"},
	{"campaign.cache_hits", "count"}, {"campaign.derived", "count"}, {"campaign.analysis_hits", "count"},
	{"campaign.coalesced", "count"}, {"campaign.heap_kb_per_key", "KB"},
	{"server.decode_ms", "ms"}, {"server.run_ms", "ms"}, {"server.encode_ms", "ms"},
	{"server.handler_ms", "ms"}, {"server.transport_ms", "ms"}, {"server.non2xx", "count"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// dropReasons says, per workload, why a per-layer metric is not
// measured there. A dropped metric is reported as 0 and named with its
// reason on the run's detail line.
var dropReasons = map[string]map[string]string{
	"cold-campaign": {
		"core.derive_ms":   "every Table I workload is its own derivation family, so a cold campaign derives nothing",
		"server.decode_ms": "no HTTP: the campaign engine is called in process", "server.run_ms": "no HTTP",
		"server.encode_ms": "no HTTP", "server.handler_ms": "no HTTP", "server.transport_ms": "no HTTP",
		"server.non2xx": "no HTTP",
	},
	"serve-miss": {
		"workloads.setup_ms":      "requests run no kernel; kernels run only while set-up fills the base captures",
		"workloads.run_ms":        "requests run no kernel",
		"workloads.verify_ms":     "requests run no kernel",
		"trace.canonical_ms":      "a derived trace is canonical by construction; only captures canonicalise",
		"core.capture_self_ms":    "requests run no capture",
		"campaign.fanout_speedup": "one cell per request: the engine has nothing to fan out",
	},
	"warm-serve": {
		"workloads.setup_ms": "memo hits run no kernel", "workloads.run_ms": "memo hits run no kernel",
		"workloads.verify_ms": "memo hits run no kernel", "trace.canonical_ms": "memo hits touch no trace",
		"trace.snapshot_encode_ms": "memo hits touch no snapshot", "trace.snapshot_decode_ms": "memo hits touch no snapshot",
		"trace.snapshot_kb": "memo hits touch no snapshot", "trace.cache_load_ms": "memo hits touch no snapshot",
		"trace.cache_store_ms": "memo hits touch no snapshot", "trace.family_lookup_ms": "memo hits touch no snapshot",
		"ibs.count_ms": "memo hits run no count pass", "core.capture_self_ms": "memo hits run no capture",
		"core.derive_ms": "memo hits derive nothing", "core.context_ms": "memo hits build no replay context",
		"core.analyze_ms": "memo hits run no analysis", "core.analysis_encode_ms": "memo hits encode no analysis",
		"core.analysis_decode_ms": "memo hits decode no analysis", "core.analysis_store_ms": "memo hits store nothing",
		"core.analysis_load_ms":   "memo hits never reach the disk analysis cache",
		"campaign.fanout_speedup": "one cell per request: the engine has nothing to fan out",
	},
}

// replayMetrics maps per-layer metrics to the replay span they total.
var replayMetrics = map[string]string{
	"workloads.setup_ms": "workloads.setup", "workloads.run_ms": "workloads.run",
	"workloads.verify_ms": "workloads.verify", "trace.canonical_ms": "trace.canonical",
	"trace.snapshot_encode_ms": "trace.snapshot_encode", "trace.snapshot_decode_ms": "trace.snapshot_decode",
	"trace.cache_load_ms": "trace.cache_load", "trace.cache_store_ms": "trace.cache_store",
	"trace.family_lookup_ms": "trace.family_lookup", "core.derive_ms": "core.derive",
	"core.context_ms": "core.context", "core.analyze_ms": "core.analyze",
	"core.analysis_encode_ms": "core.analysis_encode", "core.analysis_decode_ms": "core.analysis_decode",
	"core.analysis_store_ms": "core.analysis_store", "core.analysis_load_ms": "core.analysis_load",
}

// replayLayer turns replay spans over n ops into per-op layer times.
// Only spans the replay actually recorded become metrics.
func replayLayer(ph *phase, r layerTimes, n int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(max(n, 1)) }
	for metric, name := range replayMetrics {
		if r.count[name] > 0 {
			ph.layer[metric] = per(r.total[name])
		}
	}
	if c := r.count["ibs.count"] + r.count["ibs.recount"]; c > 0 {
		ph.layer["ibs.count_ms"] = per(r.total["ibs.count"] + r.total["ibs.recount"])
	}
	if r.count["core.capture"] > 0 {
		ph.layer["core.capture_self_ms"] = per(r.self["core.capture"])
	}
}

// fsLayer turns the timing filesystem's spans over n ops into per-op
// cache I/O figures.
func fsLayer(ph *phase, a layerTimes, fs *timingFS, n int) {
	nf := float64(max(n, 1))
	per := func(d time.Duration) float64 { return ms(d) / nf }
	ph.layer["fsatomic.read_ms"] = per(a.total["fs.read"])
	ph.layer["fsatomic.write_ms"] = per(a.total["fs.create"] + a.total["fs.write"] + a.total["fs.close"])
	ph.layer["fsatomic.rename_ms"] = per(a.total["fs.rename"] + a.total["fs.link"])
	ph.layer["fsatomic.readdir_ms"] = per(a.total["fs.readdir"])
	ops := 0
	for _, name := range fsSpanNames {
		ops += a.count[name]
	}
	ph.layer["fsatomic.ops"] = float64(ops) / nf
	ph.layer["fsatomic.kb_read"] = float64(fs.read.Load()) / 1024 / nf
	ph.layer["fsatomic.kb_written"] = float64(fs.written.Load()) / 1024 / nf
}

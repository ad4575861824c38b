package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/experiments"
	"hmpt/internal/faultfs"
	"hmpt/internal/server"
)

// daemon is one in-process hmptd in its documented -cache layout,
// served over loopback HTTP.
type daemon struct {
	ts     *httptest.Server
	client *http.Client
	dir    string
}

// bootDaemon starts a daemon over dir. Traced, its caches run over the
// timing filesystem through a zero-probability fault injector, and its
// handler records one server.handler span per analyze request.
func bootDaemon(dir string, fs faultfs.FS, tr *tracer) (*daemon, error) {
	cfg := server.Config{CacheDir: dir, AnalysisCacheDir: filepath.Join(dir, "analyses"), Log: log.New(io.Discard, "", 0)}
	if fs != nil {
		cfg.Injector = faultfs.NewInjector(fs, faultfs.Config{})
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/analyze" {
				inner.ServeHTTP(w, r)
				return
			}
			id := tr.begin("server.handler")
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	return &daemon{ts: httptest.NewServer(h), client: &http.Client{}, dir: dir}, nil
}

// close stops the daemon and waits for its connections to end.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// post makes one /v1/analyze round trip, timed at the client.
func (d *daemon) post(body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// scrape reads /metrics into a map keyed by series name with labels.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// metricDelta accumulates /metrics differences over timed regions.
type metricDelta map[string]float64

func (m metricDelta) add(before, after map[string]float64) {
	for k, v := range after {
		m[k] += v - before[k]
	}
}

// stageMs is the mean hmptd_stage_seconds of one stage, in ms.
func (m metricDelta) stageMs(stage string) float64 {
	n := m[`hmptd_stage_seconds_count{stage="`+stage+`"}`]
	if n == 0 {
		return 0
	}
	return m[`hmptd_stage_seconds_sum{stage="`+stage+`"}`] / n * 1000
}

func analyzeBody(name string, seed *uint64) []byte {
	b, _ := json.Marshal(server.AnalyzeRequest{Workload: name, Seed: seed}) // a plain struct always marshals
	return b
}

// serveBench is the serve-miss and warm-serve workloads: a closed loop
// of one client against one daemon whose set-up filled the base
// captures of the Table I mix.
type serveBench struct {
	work  string
	prm   params
	miss  bool
	rng   *rand.Rand
	names []string
	p     campaign.Platform
	seen  map[uint64]bool
}

func newServeBench(work string, seed uint64, prm params, miss bool) (*serveBench, error) {
	p, err := experiments.PlatformByName("xeonmax")
	if err != nil {
		return nil, err
	}
	b := &serveBench{work: work, prm: prm, miss: miss, p: p, rng: rand.New(rand.NewPCG(seed, 0x5E7E)), seen: map[uint64]bool{}}
	for _, spec := range experiments.Specs() {
		b.names = append(b.names, spec.Name)
		b.seen[spec.Options.Seed] = true
	}
	return b, nil
}

// boot starts a daemon in a fresh directory and fills its caches with
// the Table I mix at the paper seeds: the serve workloads' set-up.
func (b *serveBench) boot(fs faultfs.FS, tr *tracer) (*daemon, time.Duration, error) {
	dir, err := tempDir(b.work)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := bootDaemon(dir, fs, tr)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range b.names {
		status, body, _, err := d.post(analyzeBody(name, nil))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("filling %s: %w", name, err)
		}
	}
	return d, time.Since(start), nil
}

func (b *serveBench) shutdown(d *daemon) {
	d.close()
	os.RemoveAll(d.dir)
}

// run measures one phase. reps is how many set-ups it makes.
func (b *serveBench) run(dur time.Duration, tr *tracer, reps int) (*phase, error) {
	if b.miss {
		return b.runMiss(dur, tr)
	}
	return b.runWarm(dur, tr, reps)
}

// respCounts sums the campaign counters of analyze responses.
type respCounts struct{ execs, hits, derived, aHits, coal int }

func (r *respCounts) add(c server.RunCounters) {
	r.execs += c.Executions
	r.hits += c.CacheHits
	r.derived += c.Derived
	r.aHits += c.AnalysisHits
	r.coal += c.Coalesced
}

// serveLayer records the per-op figures both serve workloads share.
func serveLayer(ph *phase, tr *tracer, fs *timingFS, m metricDelta, rc respCounts, cnt counters, non2xx, n int) {
	nf := float64(max(n, 1))
	ph.addCounts(cnt, n)
	ph.layer["campaign.executions"] = float64(rc.execs) / nf
	ph.layer["campaign.cache_hits"] = float64(rc.hits) / nf
	ph.layer["campaign.derived"] = float64(rc.derived) / nf
	ph.layer["campaign.analysis_hits"] = float64(rc.aHits) / nf
	ph.layer["campaign.coalesced"] = float64(rc.coal) / nf
	ph.layer["trace.cache_hits"] = m[`hmptd_snapshot_cache_ops_total{op="hit"}`] / nf
	ph.layer["trace.cache_misses"] = m[`hmptd_snapshot_cache_ops_total{op="miss"}`] / nf
	ph.layer["server.non2xx"] = float64(non2xx)
	if tr == nil {
		return
	}
	ops := map[int]bool{}
	for i := 0; i < n; i++ {
		ops[i] = true
	}
	a := tr.aggregate(ops)
	fsLayer(ph, a, fs, n)
	ph.layer["server.decode_ms"] = m.stageMs("decode")
	ph.layer["server.run_ms"] = m.stageMs("run")
	ph.layer["server.encode_ms"] = m.stageMs("encode")
	ph.layer["server.handler_ms"] = ms(a.total["server.handler"]) / nf
	ph.layer["server.transport_ms"] = ms(a.total["serve.request"]-a.total["server.handler"]) / nf
	ph.layer["campaign.residual_ms"] = ph.layer["server.run_ms"]
}

// runWarm serves the Table I mix in seeded order from a warm daemon and
// checks every body against the daemon's first warm body for that
// workload.
func (b *serveBench) runWarm(dur time.Duration, tr *tracer, reps int) (*phase, error) {
	ph := newPhase(20 * b.prm.segmentOps)
	var fs *timingFS
	if tr != nil {
		fs = newTimingFS(tr)
	}
	var d *daemon
	for k := 0; k < reps; k++ {
		if d != nil {
			b.shutdown(d)
		}
		var setup time.Duration
		var err error
		if d, setup, err = b.boot(fsOrNil(fs), tr); err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, setup.Seconds())
	}
	defer b.shutdown(d)
	bodies := make([][]byte, len(b.names))
	refs := make([][]byte, len(b.names))
	var refCounts []server.RunCounters
	for i, name := range b.names {
		bodies[i] = analyzeBody(name, nil)
		status, body, _, err := d.post(bodies[i])
		var resp server.AnalyzeResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &resp)
		} else if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return nil, fmt.Errorf("warm reference for %s: %w", name, err)
		}
		if b.prm.perturb {
			body[len(body)/2] ^= 0x01
		}
		refs[i] = body
		refCounts = append(refCounts, resp.Counters)
	}

	var md metricDelta = map[string]float64{}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	var rc respCounts
	non2xx := 0
	heap0 := liveHeapMB()
	c0 := readCounters()
	m := markMem()
	start := time.Now()
	last := start
	var order []int
	for i := 0; ph.more(start, dur); i++ {
		if len(order) == 0 {
			order = mix(b.rng, len(b.names), len(b.names))
		}
		w := order[0]
		order = order[1:]
		tr.setOp(i)
		id := tr.begin("serve.request")
		status, body, lat, err := d.post(bodies[w])
		tr.end(id)
		ok := err == nil && status == http.StatusOK && bytes.Equal(body, refs[w])
		now := time.Now()
		ph.record(b.names[w], lat, now.Sub(last), 1, ok)
		last = now
		if status >= 300 {
			non2xx++
		}
		if ok {
			rc.add(refCounts[w])
		} else if err == nil {
			var resp server.AnalyzeResponse
			if json.Unmarshal(body, &resp) == nil {
				rc.add(resp.Counters)
			}
		}
	}
	tr.setOp(-1)
	ph.mem.add(m)
	cnt := readCounters().sub(c0)
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	md.add(before, after)
	ph.heapMB = append(ph.heapMB, liveHeapMB())
	ph.addRuntime(ph.heapMB[0]-heap0, ph.attempted)
	serveLayer(ph, tr, fs, md, rc, cnt, non2xx, ph.attempted)
	return ph, nil
}

// fsOrNil keeps a nil *timingFS from becoming a non-nil interface.
func fsOrNil(fs *timingFS) faultfs.FS {
	if fs == nil {
		return nil
	}
	return fs
}

// missReq is one serve-miss request: a Table I workload under a seed no
// daemon of this run has seen.
type missReq struct {
	w    int
	seed uint64
	body []byte
}

// runMiss serves never-seen seeds in rounds: each round boots a daemon,
// fills its base captures, serves prm.missKeys distinct keys, measures
// the live heap with the daemon still up, then re-checks a seed-chosen
// sample of its answers against live captures.
func (b *serveBench) runMiss(dur time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase(0)
	var fs, replayFS *timingFS
	if tr != nil {
		fs, replayFS = newTimingFS(tr), newTimingFS(tr)
	}
	tot := &missTotals{md: metricDelta{}}
	start := time.Now()
	for ph.more(start, dur) {
		d, setup, err := b.boot(fsOrNil(fs), tr)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, setup.Seconds())
		err = b.missRound(ph, d, tr, replayFS, tot)
		b.shutdown(d)
		if err != nil {
			return nil, err
		}
	}
	n := ph.attempted
	ph.addRuntime(tot.heapGrowthMB, n)
	serveLayer(ph, tr, fs, tot.md, tot.rc, tot.cnt, tot.non2xx, n)
	if tr != nil {
		ops := map[int]bool{}
		for i := 0; i < n; i++ {
			ops[replayOp+i] = true
		}
		r := tr.aggregate(ops)
		replayLayer(ph, r, n)
		work, _ := replayWork(r)
		ph.layer["campaign.residual_ms"] = ph.layer["server.run_ms"] - ms(work)/float64(max(n, 1))
		ph.layer["trace.snapshot_kb"] = tot.snapKB / float64(max(n, 1))
	}
	return ph, nil
}

// missTotals accumulates what serve-miss rounds measured.
type missTotals struct {
	md           metricDelta
	rc           respCounts
	cnt          counters
	heapGrowthMB float64
	snapKB       float64
	non2xx       int
}

// missRound serves one daemon's keys as one segment.
func (b *serveBench) missRound(ph *phase, d *daemon, tr *tracer, replayFS *timingFS, tot *missTotals) error {
	reqs := make([]missReq, b.prm.missKeys)
	for i, w := range mix(b.rng, len(b.names), len(reqs)) {
		seed := b.rng.Uint64()
		for b.seen[seed] || seed == 0 {
			seed = b.rng.Uint64()
		}
		b.seen[seed] = true
		reqs[i] = missReq{w: w, seed: seed}
		reqs[i].body = analyzeBody(b.names[reqs[i].w], &reqs[i].seed)
	}
	checked := map[int]bool{}
	for _, i := range b.rng.Perm(len(reqs))[:min(b.prm.missChecks, len(reqs))] {
		checked[i] = true
	}
	kept := map[int]server.AnalyzeResponse{}

	var replay caches
	if tr != nil {
		dir, err := tempDir(b.work)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if replay, err = b.fillReplay(dir, replayFS); err != nil {
			return err
		}
	}
	daemonCaches, err := openCaches(d.dir, nil)
	if err != nil {
		return err
	}

	before, err := d.scrape()
	if err != nil {
		return err
	}
	heap0 := liveHeapMB()
	c0 := readCounters()
	m := markMem()
	first := ph.attempted
	last := time.Now()
	for j, rq := range reqs {
		op := first + j
		tr.setOp(op)
		id := tr.begin("serve.request")
		status, body, lat, err := d.post(rq.body)
		tr.end(id)
		var resp server.AnalyzeResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &resp)
		} else if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		if status >= 300 {
			tot.non2xx++
		}
		ok := err == nil && resp.Result.Workload == b.names[rq.w] && resp.Result.Error == ""
		now := time.Now()
		ph.record(b.names[rq.w], lat, now.Sub(last), 1, ok)
		if err == nil {
			tot.rc.add(resp.Counters)
		}
		if checked[j] && ok {
			kept[j] = resp
		}
		if tr != nil && ok {
			kb, err := b.replayReq(tr, replay, daemonCaches, op, rq)
			if err != nil {
				ph.fail(fmt.Errorf("serve-miss replay of request %d: %w", op, err))
			}
			tot.snapKB += kb
		}
		last = time.Now()
	}
	tr.setOp(-1)
	ph.mem.add(m)
	tot.cnt = tot.cnt.plus(readCounters().sub(c0))
	after, err := d.scrape()
	if err != nil {
		return err
	}
	tot.md.add(before, after)
	heap := liveHeapMB()
	ph.heapMB = append(ph.heapMB, heap)
	tot.heapGrowthMB += heap - heap0

	for j, resp := range kept {
		if err := b.liveCheck(reqs[j], resp, daemonCaches); err != nil {
			ph.reject(j)
		}
	}
	ph.closeSegment()
	return nil
}

// fillReplay gives a replay cache tree the same base captures the
// daemon's set-up stored.
func (b *serveBench) fillReplay(dir string, fs *timingFS) (caches, error) {
	c, err := openCaches(dir, fs)
	if err != nil {
		return c, err
	}
	m := campaign.Matrix{Platforms: []campaign.Platform{b.p}}
	for _, name := range b.names {
		w, err := experiments.WorkloadByName(name, false)
		if err != nil {
			return c, err
		}
		m.Workloads = append(m.Workloads, w)
	}
	res, err := (&campaign.Engine{Cache: c.snaps, Analyses: c.ans}).Run(m)
	if err == nil {
		err = res.Err()
	}
	return c, err
}

// replayReq redoes one request's engine work through the layers' calls
// and checks the daemon stored byte-identical entries.
func (b *serveBench) replayReq(tr *tracer, replay, daemon caches, op int, rq missReq) (float64, error) {
	w, err := experiments.WorkloadByName(b.names[rq.w], false)
	if err != nil {
		return 0, err
	}
	opts := cellOpts(w, b.p)
	opts.Seed = rq.seed
	tr.setOp(replayOp + op)
	id := tr.begin("replay.op")
	skey, akey, size, err := replayCell(tr, replay, w, opts, true)
	tr.end(id)
	tr.setOp(-1)
	if err == nil {
		err = sameFiles(daemon, replay, skey, akey)
	}
	return float64(size) / 1024, err
}

// liveCheck is the serve-miss oracle: a derivation must equal a capture,
// so the daemon's answer is compared with a live capture on a fresh
// engine path with no caches — both the stored analysis bytes and the
// Table II figures in the response.
func (b *serveBench) liveCheck(rq missReq, resp server.AnalyzeResponse, daemon caches) error {
	name := b.names[rq.w]
	w, err := experiments.WorkloadByName(name, false)
	if err != nil {
		return err
	}
	opts := cellOpts(w, b.p)
	opts.Seed = rq.seed
	snap, err := core.Capture(w.Factory(), opts)
	if err != nil {
		return err
	}
	rc, err := core.NewContext(snap)
	if err != nil {
		return err
	}
	an, err := core.NewContextReplay(rc, opts).Analyze()
	if err != nil {
		return err
	}
	var sites = rc.Sites()
	if opts.GroupBy == nil {
		sites = nil
	}
	akey, err := core.AnalysisKeyFor(name, opts, sites)
	if err != nil {
		return err
	}
	want, err := core.EncodeAnalysis(akey, an)
	if err != nil {
		return err
	}
	if b.prm.perturb {
		want[len(want)/2] ^= 0xff
	}
	got, err := os.ReadFile(daemon.ans.Path(akey))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s seed %d: served analysis differs from a live capture's", name, rq.seed)
	}
	row := an.TableIIRow()
	r := resp.Result
	_, best := an.MaxSpeedup()
	if r.MaxSpeedup != row.MaxSpeedup || r.HBMOnlySpeedup != row.HBMOnlySpeedup || r.NinetyUsage != row.NinetyUsage ||
		r.MemoryBytes != int64(row.MemoryUsage) || r.FilteredAllocs != row.FilteredAllocs ||
		r.SampleCount != an.SampleCount || best == nil || r.BestConfig != best.Label {
		return fmt.Errorf("%s seed %d: served Table II figures differ from a live capture's", name, rq.seed)
	}
	return nil
}

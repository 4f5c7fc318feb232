// Command perfbench is the repository benchmark: it boots the serving
// stack in-process on loopback HTTP (internal/server for one node,
// internal/shard in front of shard-role servers for the routed path),
// drives one workload with requests generated from a seed, checks
// every answer, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer metrics of a traced run — as the last line of its
// output. See NOTES.md for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload form-sparse --seed 1 --seconds 45 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/rank"
	"groupform/internal/server"
	"groupform/internal/solver"
)

// setupRepeats is how many times a run boots the program; setup_s is
// the median, because one cold boot swings by up to 40%.
const setupRepeats = 7

// warmupRounds is how many passes over every configuration precede the
// timed phase; they are checked but not timed.
const warmupRounds = 2

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"form_rps_ref", "1/kref"},
	{"form_p50_ref", "ref"},
	{"form_p95_ref", "ref"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"dataset.read_binary_ms", "ms"},
	{"rank.pref_build_ms", "ms"},
	{"solver.form_into_ms", "ms"},
	{"solver.pref_builds", "count"},
	{"solver.pref_hits", "count"},
	{"core.bucketize_ms", "ms"},
	{"core.buckets", "count"},
	{"core.merge_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"core.stage_coverage", "ratio"},
	{"semantics.group_topk_ms", "ms"},
	{"semantics.members_scored", "count"},
	{"server.form_handler_ms", "ms"},
	{"server.form_self_ms", "ms"},
	{"server.json_encode_ms", "ms"},
	{"server.response_bytes", "bytes"},
	{"server.transport_ms", "ms"},
	{"shard.scatter_ms", "ms"},
	{"shard.buckets_handler_ms", "ms"},
	{"shard.gather_calls", "count"},
	{"shard.gather_ms", "ms"},
	{"shard.bytes", "bytes"},
	{"shard.router_self_ms", "ms"},
	{"shard.retries", "count"},
	{"load.trace_overhead_pct", "%"},
}

// run is one benchmark invocation's outcome.
type run struct {
	w         workload
	seed      int64
	d         time.Duration
	out       string
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	shown     int            // failure messages printed so far
	samples   map[string]int // per-layer sample counts not taken from spans
	fp        fingerprint    // the traced run's exact counts
}

func main() {
	wl := flag.String("workload", "", "workload: form-sparse or routed-s3")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 45, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: add a traced phase and report the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for spans, counts and scratch files")
	flag.Parse()
	w, err := findWorkload(*wl)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newRun(w, *seed, time.Duration(*seconds)*time.Second, *out)
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.execute(*trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", d.name)
			os.Exit(1)
		}
		ms[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newRun(w workload, seed int64, d time.Duration, out string) *run {
	return &run{w: w, seed: seed, d: d, out: out, correct: true,
		values: map[string]float64{}, samples: map[string]int{}}
}

func (r *run) logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// fail counts one failed operation and reports the first few.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.shown < 10 {
		r.shown++
		r.logf("FAIL "+format, args...)
	}
}

// report records an end-to-end metric and prints it with its sample
// count.
func (r *run) report(name string, v float64, unit string, samples int, extra string) {
	r.values[name] = v
	r.logf("metric %-26s %12.4f %-6s samples=%d%s", name, v, unit, samples, extra)
}

func (r *run) execute(traced bool) error {
	w := r.w
	in, ds, err := makeInputs(w, r.seed)
	if err != nil {
		return err
	}
	r.logf("workload %s seed %d seconds %d trace %v: %d users, %d items, %d ratings, catalog %d bytes",
		w.name, r.seed, int(r.d/time.Second), traced, ds.NumUsers(), ds.NumItems(), ds.NumRatings(), len(in.catalog))
	refs, err := r.references(ds, in)
	if err != nil {
		return err
	}

	var tr *tracer
	var wrap wrapFunc
	if traced {
		tr = newTracer()
		wrap = tr.wrap
	}
	var topo *topology
	var setups, reads []float64
	for i := 0; i < setupRepeats; i++ {
		if topo != nil {
			topo.close()
			topo = nil
		}
		runtime.GC()
		t0 := time.Now()
		t, rb, err := boot(w, in.catalog, in.bodies[0], wrap)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		reads = append(reads, ms(rb))
		topo = t
	}
	defer topo.close()
	in.catalog = nil // heap_mb measures the program, not the harness's copy

	check := func(ci int, body []byte) bool { return bytes.Equal(body, refs[ci]) }
	r.warmup(topo, in, check)

	pos, nextID := 0, int64(0)
	var ref *refClock
	var tick func(formSample)
	if !traced {
		// A traced run uses this phase only as the raw base of
		// load.trace_overhead_pct, and its traced phase runs no chunks.
		ref = newRefClock()
		tick = func(formSample) { ref.tick() }
	}
	runtime.GC()
	forms, elapsed := timedPhase(topo, in, &pos, &nextID, r.d, check, tick)
	r.tally(forms)
	r.logf("stream: %s", countsLine(in.reader, len(forms)))
	lat := latencies(forms)
	p50, p95 := median(lat), quantile(lat, 0.95)

	if !traced {
		norm := make([]float64, 0, len(lat))
		sum := 0.0
		for _, s := range forms {
			if s.ok {
				v := ms(s.lat) / ref.scale(s.start)
				norm = append(norm, v)
				sum += v
			}
		}
		r.logf("reference chunk: median %.4f ms over %d chunks, %.1f%% of the timed phase", median(ref.dur), len(ref.dur), 100*ref.busy.Seconds()/elapsed.Seconds())
		r.logf("raw: form_rps %.4f 1/s, form_p50_ms %.4f, form_p95_ms %.4f", float64(len(lat))/(elapsed-ref.busy).Seconds(), p50, p95)
		ref, ds = nil, nil
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.report("form_rps_ref", 1000*float64(len(norm))/sum, "1/kref", len(norm), "")
		p95n := quantile(norm, 0.95)
		r.report("form_p50_ref", median(norm), "ref", len(norm), "")
		n := beyond(norm, p95n)
		note := fmt.Sprintf(" beyond=%d", n)
		if n < 10 {
			note += " (fewer than 10 samples beyond the p95: read it as the maximum)"
		}
		r.report("form_p95_ref", p95n, "ref", len(norm), note)
		r.report("heap_mb", float64(m.HeapAlloc)/(1<<20), "MB", 1, "")
		r.report("setup_s", median(setups), "s", len(setups), fmt.Sprintf(" all=%s", fmtList(setups)))
		r.logf("per-config form p50 ms: %s", perConfigP50(forms))
		r.logf("per-window form p50 ms: %s", perWindowP50(forms, 5))
	} else {
		r.values["dataset.read_binary_ms"] = median(reads)
		r.samples["dataset.read_binary_ms"] = len(reads)
		if err := r.tracedPhase(topo, tr, ds, in, check, p50); err != nil {
			return err
		}
	}
	r.logf("fail_ratio %g (%d failed of %d attempted)", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	return nil
}

// references builds the expected response bytes per configuration:
// Engine.Form encoded the way the server encodes for form-sparse, the
// single-node server's own answers for routed-s3.
func (r *run) references(ds *dataset.Dataset, in *inputs) ([][]byte, error) {
	w := r.w
	refs := make([][]byte, len(readerConfigs))
	if w.shards == 0 {
		eng, err := solver.NewEngine(ds)
		if err != nil {
			return nil, err
		}
		for i, c := range readerConfigs {
			if refs[i], err = encodeForm(eng, c.core(w)); err != nil {
				return nil, err
			}
		}
	} else {
		s := server.New(server.Config{})
		if err := s.AddDataset(datasetName, ds); err != nil {
			return nil, err
		}
		for i := range readerConfigs {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/form", bytes.NewReader(in.bodies[i])))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("single-node reference %s: status %d: %.200s", readerConfigs[i].name, rec.Code, rec.Body.Bytes())
			}
			refs[i] = rec.Body.Bytes()
		}
	}
	var parts []string
	for i, c := range readerConfigs {
		sum := sha256.Sum256(refs[i])
		parts = append(parts, fmt.Sprintf("%s=%s/%dB", c.name, hex.EncodeToString(sum[:6]), len(refs[i])))
	}
	r.logf("reference sha256: %s", strings.Join(parts, " "))
	return refs, nil
}

// encodeForm is the server's /form encoding of eng.Form's result.
func encodeForm(eng *solver.Engine, cfg core.Config) ([]byte, error) {
	res, err := eng.Form(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(server.ToFormResponse(datasetName, res))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// warmup sends every configuration warmupRounds times, untimed.
func (r *run) warmup(t *topology, in *inputs, check func(int, []byte) bool) {
	c := newClient()
	defer c.close()
	for i := 0; i < warmupRounds*len(readerConfigs); i++ {
		ci := i % len(readerConfigs)
		r.attempted++
		st, body, err := c.post(t.url+"/form", in.bodies[ci], 0)
		if err != nil || st != http.StatusOK || !check(ci, body) {
			r.fail("warm-up %s: status %d err %v", readerConfigs[ci].name, st, err)
		}
	}
}

func (r *run) tally(forms []formSample) {
	for _, s := range forms {
		r.attempted++
		if !s.ok {
			r.fail("/form %s (request %d) answered wrongly or not at all", readerConfigs[s.cfg].name, s.id)
		}
	}
}

// tracedPhase runs the stream again with spans on, replays each
// request through the layer functions, and fills r.values with the
// per-layer metrics.
func (r *run) tracedPhase(topo *topology, tr *tracer, ds *dataset.Dataset, in *inputs, check func(int, []byte) bool, untracedP50 float64) error {
	w := r.w
	ctx := context.Background()
	cfg0 := readerConfigs[0].core(w)
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := rank.AllTopKParallel(ctx, ds, w.k, 0, cfg0.EffectiveWorkers()); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	r.values["rank.pref_build_ms"] = median(builds)
	r.samples["rank.pref_build_ms"] = len(builds)

	eng, err := solver.NewEngine(ds)
	if err != nil {
		return err
	}
	rp := &replayer{w: w, t: tr, engine: eng, sc: core.NewScratch()}
	for i := 0; i < w.shards; i++ {
		sds, err := ds.ShardUsers(i, w.shards)
		if err != nil {
			return err
		}
		se, err := solver.NewEngine(sds)
		if err != nil {
			return err
		}
		rp.shards = append(rp.shards, se)
	}
	for ci := range readerConfigs { // warm the replay engines and scratch
		if err := rp.replay(0, ci); err != nil {
			return err
		}
	}

	var replayErr error
	afterForm := func(s formSample) {
		tr.add(span{ID: s.id, Kind: "client /form", Start: tr.at(s.start), End: tr.at(s.start.Add(s.lat)), Cfg: s.cfg})
		if err := rp.replay(s.id, s.cfg); err != nil && replayErr == nil {
			replayErr = err
		}
	}
	st0 := rp.stats()
	pos, nextID := 0, int64(1<<30)
	runtime.GC()
	tr.on.Store(true)
	forms, _ := timedPhase(topo, in, &pos, &nextID, r.d, check, afterForm)
	tr.stop()
	st1 := rp.stats()
	if replayErr != nil {
		return replayErr
	}
	r.tally(forms)

	fp := fingerprint{}
	r.fp = fp
	lv, problems := analyze(tr.spans, fp)
	for _, name := range sortedKeys(lv) {
		if _, listed := r.values[name]; !listed {
			r.values[name] = median(lv[name])
		}
	}
	var perCfg []string
	for _, c := range readerConfigs {
		if v, ok := lv["solver.form_into_ms/"+c.name]; ok {
			perCfg = append(perCfg, fmt.Sprintf("%s=%.3f", c.name, median(v)))
		}
	}
	r.logf("per-config solver.form_into_ms: %s", strings.Join(perCfg, " "))
	r.values["solver.pref_builds"] = float64(st1.PrefBuilds - st0.PrefBuilds)
	r.values["solver.pref_hits"] = float64(st1.PrefHits - st0.PrefHits)
	if topo.router != nil {
		c := newClient()
		body, err := c.get(topo.url + "/metrics")
		c.close()
		if err != nil {
			return err
		}
		r.values["shard.retries"] = routerShardErrors(body)
	}
	traced := latencies(forms)
	r.values["load.trace_overhead_pct"] = (median(traced)/untracedP50 - 1) * 100
	r.logf("traced form p50 %.4f ms (samples=%d) vs untraced %.4f ms", median(traced), len(traced), untracedP50)
	for _, d := range perLayer {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) {
			r.values[d.name] = 0 // the layer is not on this workload's path
			v = 0
		}
		n, ok := r.samples[d.name]
		if !ok {
			n = len(lv[d.name])
		}
		r.logf("layer %-26s %12.4f %s samples=%d", d.name, v, d.unit, n)
	}

	spansPath := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, r.seed))
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return err
	}
	r.logf("spans: %d written to %s", len(tr.spans), spansPath)
	for _, p := range problems {
		r.correct = false
		r.logf("FAIL %s", p)
	}
	key, err := exeKey()
	if err != nil {
		return err
	}
	msg, err := fp.compareWithEarlier(filepath.Join(r.out, "counts"),
		fmt.Sprintf("%s-seed%d-s%d-%s", w.name, r.seed, int(r.d/time.Second), key))
	if err != nil {
		r.correct = false
		r.logf("FAIL %v", err)
	} else {
		r.logf("exact counts: %d keys, sha256 %s: %s", len(fp), fp.digest(), msg)
	}
	return nil
}

func latencies(forms []formSample) []float64 {
	out := make([]float64, 0, len(forms))
	for _, s := range forms {
		if s.ok {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func perConfigP50(forms []formSample) string {
	by := make([][]float64, len(readerConfigs))
	for _, s := range forms {
		if s.ok {
			by[s.cfg] = append(by[s.cfg], ms(s.lat))
		}
	}
	var parts []string
	for i, c := range readerConfigs {
		parts = append(parts, fmt.Sprintf("%s=%.3f(n=%d)", c.name, median(by[i]), len(by[i])))
	}
	return strings.Join(parts, " ")
}

func countsLine(stream []int, n int) string {
	counts := configCounts(stream, n)
	parts := []string{fmt.Sprintf("%d /form requests", n)}
	for i, c := range readerConfigs {
		parts = append(parts, fmt.Sprintf("%s=%d", c.name, counts[i]))
	}
	return strings.Join(parts, " ")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ",")
}

// perWindowP50 splits the timed phase into n equal windows by request
// start and prints each window's median, to show drift within a run.
func perWindowP50(forms []formSample, n int) string {
	if len(forms) == 0 {
		return ""
	}
	t0 := forms[0].start
	span := forms[len(forms)-1].start.Sub(t0) + 1
	by := make([][]float64, n)
	for _, s := range forms {
		if s.ok {
			i := int(int64(s.start.Sub(t0)) * int64(n) / int64(span))
			by[i] = append(by[i], ms(s.lat))
		}
	}
	parts := make([]string, n)
	for i := range by {
		parts[i] = fmt.Sprintf("%.3f", median(by[i]))
	}
	return strings.Join(parts, " ")
}

package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"groupform/internal/core"
	"groupform/internal/semantics"
	"groupform/internal/server"
	"groupform/internal/solver"
)

// span is one timed interval of the traced run. Root spans are client
// requests (ID = the harness request id); handler spans name their
// root in Parent through reqHeader; shard hops, which the router does
// not tag, get their parent from the router span that contains them.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Cfg    int    `json:"cfg"`           // reader configuration
	N      int64  `json:"n,omitempty"`   // a count the layer reports
	In     int64  `json:"in,omitempty"`  // request body bytes
	Out    int64  `json:"out,omitempty"` // response body bytes
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	on     atomic.Bool
	active sync.WaitGroup // traced handlers still running
	epoch  time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.ids.Store(1 << 50)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// stop waits for traced handlers still finishing (a client can hold
// its whole response before the handler returns) and turns tracing off.
func (t *tracer) stop() {
	t.active.Wait()
	t.on.Store(false)
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add keeps s if tracing is on.
func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span around every request the handler serves while
// tracing is on, with the request and response body sizes.
func (t *tracer) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t.active.Add(1)
		defer t.active.Done()
		start := t.now()
		cr := &countingReader{r: r.Body}
		r.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t.add(span{Parent: parent, Kind: role + " " + r.URL.Path, Start: start, End: t.now(), In: cr.n, Out: cw.n})
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// replayer re-runs a served request's configuration through the layer
// functions, on harness-owned engines over the same data, and records
// one span per layer call under the request's id.
type replayer struct {
	w      workload
	t      *tracer
	engine *solver.Engine   // over the whole dataset
	shards []*solver.Engine // routed: one engine per shard slice
	sc     *core.Scratch
	tks    semantics.TopKScratch
}

func (r *replayer) stats() solver.EngineStats {
	st := r.engine.Stats()
	for _, e := range r.shards {
		s := e.Stats()
		st.PrefBuilds += s.PrefBuilds
		st.PrefHits += s.PrefHits
	}
	return st
}

func (r *replayer) replay(id int64, ci int) error {
	ctx := context.Background()
	cfg := readerConfigs[ci].core(r.w)
	eng := r.engine
	ds := eng.Dataset()
	mark := func(kind string, t0 time.Time, n int64) {
		r.t.add(span{Parent: id, Kind: kind, Start: r.t.at(t0), End: r.t.now(), Cfg: ci, N: n})
	}

	t0 := time.Now()
	res, err := eng.FormInto(ctx, cfg, r.sc)
	if err != nil {
		return fmt.Errorf("replay FormInto: %w", err)
	}
	mark("solver.form_into", t0, 0)

	t0 = time.Now()
	scorer := semantics.Scorer{DS: ds, Missing: cfg.Missing}
	members := 0
	for _, g := range res.Groups {
		if _, _, err := scorer.TopKInto(cfg.Semantics, g.Members, cfg.K, &r.tks); err != nil {
			return fmt.Errorf("replay TopKInto: %w", err)
		}
		members += len(g.Members)
	}
	mark("semantics.group_topk", t0, int64(members))

	t0 = time.Now()
	body, err := json.Marshal(server.ToFormResponse(datasetName, res))
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	mark("server.json_encode", t0, int64(len(body)+1)) // the server appends a newline

	t0 = time.Now()
	var passes [][]core.ShardBucket
	if len(r.shards) == 0 {
		p, err := eng.BucketizeShard(ctx, cfg)
		if err != nil {
			return fmt.Errorf("replay BucketizeShard: %w", err)
		}
		passes = append(passes, p.Buckets)
	} else {
		for _, se := range r.shards {
			p, err := se.BucketizeShard(ctx, cfg)
			if err != nil {
				return fmt.Errorf("replay BucketizeShard: %w", err)
			}
			passes = append(passes, p.Buckets)
		}
	}
	mark("core.bucketize", t0, 0)

	t0 = time.Now()
	merged := core.MergeShardBuckets(passes, cfg)
	mark("core.merge", t0, int64(len(merged)))

	t0 = time.Now()
	if _, err := core.FinalizeMerged(ctx, cfg, merged, core.LocalOracle{DS: ds, Cfg: cfg}); err != nil {
		return fmt.Errorf("replay FinalizeMerged: %w", err)
	}
	mark("core.finalize", t0, 0)
	return nil
}

// layerValues gathers per-request (or per-call) samples by metric.
type layerValues map[string][]float64

func (lv layerValues) add(name string, v float64) { lv[name] = append(lv[name], v) }

// intervalUnion is the length of the union of [start, end) intervals.
func intervalUnion(ss []span) float64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cs, ce := int64(0), iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > ce {
			total += ce - cs
			cs, ce = v[0], v[1]
		} else if v[1] > ce {
			ce = v[1]
		}
	}
	total += ce - cs
	return float64(total) / 1e6
}

// analyze turns the traced phase's spans into per-layer samples. It
// also notes each request's counts in fp by configuration; every
// request of one configuration must agree.
func analyze(spans []span, fp fingerprint) (layerValues, []string) {
	lv := layerValues{}
	var problems []string
	byParent := map[int64][]span{}
	var fronts, hops []span
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Kind, "router "):
			fronts = append(fronts, s)
		case strings.HasPrefix(s.Kind, "shard"):
			hops = append(hops, s)
			continue
		}
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	// One reader: a shard hop belongs to the router span containing it.
	sort.Slice(fronts, func(a, b int) bool { return fronts[a].Start < fronts[b].Start })
	hopsOf := map[int64][]span{}
	for _, h := range hops {
		i := sort.Search(len(fronts), func(i int) bool { return fronts[i].Start > h.Start }) - 1
		if i < 0 || h.End > fronts[i].End {
			problems = append(problems, fmt.Sprintf("shard hop %s at %d ns lies outside every router span", h.Kind, h.Start))
			continue
		}
		hopsOf[fronts[i].Parent] = append(hopsOf[fronts[i].Parent], h)
		if strings.HasSuffix(h.Kind, "/shard/buckets") {
			lv.add("shard.buckets_handler_ms", h.dur())
		}
	}
	for _, root := range spans {
		if root.Parent != 0 || root.Kind != "client /form" {
			continue
		}
		name := readerConfigs[root.Cfg].name
		var handler, formInto float64
		var layers = map[string]span{}
		for _, s := range byParent[root.ID] {
			layers[s.Kind] = s
			if s.Kind == "server /form" || s.Kind == "router /form" {
				handler = s.dur()
			}
		}
		if fi, ok := layers["solver.form_into"]; ok {
			formInto = fi.dur()
			lv.add("solver.form_into_ms", formInto)
			lv.add("solver.form_into_ms/"+name, formInto)
		}
		if s, ok := layers["semantics.group_topk"]; ok {
			lv.add("semantics.group_topk_ms", s.dur())
			lv.add("semantics.members_scored", float64(s.N))
			fp.note("cfg="+name+" semantics.members_scored", s.N, &problems)
		}
		if s, ok := layers["server.json_encode"]; ok {
			lv.add("server.json_encode_ms", s.dur())
			lv.add("server.response_bytes", float64(s.N))
		}
		b, m, f := layers["core.bucketize"], layers["core.merge"], layers["core.finalize"]
		if f.Kind != "" {
			lv.add("core.bucketize_ms", b.dur())
			lv.add("core.merge_ms", m.dur())
			lv.add("core.finalize_ms", f.dur())
			lv.add("core.buckets", float64(m.N))
			fp.note("cfg="+name+" core.buckets", m.N, &problems)
			if formInto > 0 {
				lv.add("core.stage_coverage", (b.dur()+m.dur()+f.dur())/formInto)
			}
		}
		if handler > 0 {
			lv.add("server.form_handler_ms", handler)
			lv.add("server.transport_ms", root.dur()-handler)
			if formInto > 0 {
				lv.add("server.form_self_ms", handler-formInto)
			}
		}
		if hs, ok := hopsOf[root.ID]; ok {
			var scatter, gather []span
			var bytes int64
			for _, h := range hs {
				bytes += h.In + h.Out
				if strings.HasSuffix(h.Kind, "/shard/buckets") {
					scatter = append(scatter, h)
				} else {
					gather = append(gather, h)
				}
			}
			first, last := int64(math.MaxInt64), int64(0)
			for _, h := range scatter {
				first, last = min(first, h.Start), max(last, h.End)
			}
			if len(scatter) > 0 {
				lv.add("shard.scatter_ms", float64(last-first)/1e6)
			}
			lv.add("shard.gather_calls", float64(len(gather)))
			lv.add("shard.gather_ms", intervalUnion(gather))
			lv.add("shard.bytes", float64(bytes))
			lv.add("shard.router_self_ms", handler-intervalUnion(hs))
			fp.note("cfg="+name+" shard.gather_calls", int64(len(gather)), &problems)
			fp.note("cfg="+name+" shard.bytes", bytes, &problems)
		}
	}
	return lv, problems
}

// fingerprint holds the counts that must repeat exactly across traced
// runs of one build with one seed.
type fingerprint map[string]int64

// note records v under key; a key seen before must carry the same v.
func (fp fingerprint) note(key string, v int64, problems *[]string) {
	if old, ok := fp[key]; ok && old != v {
		*problems = append(*problems, fmt.Sprintf("count %s read %d, earlier %d", key, v, old))
		return
	}
	fp[key] = v
}

// compareWithEarlier checks fp against the fingerprint an earlier run
// of the same executable with the same workload, seed and length left
// in dir, or leaves this one there for the next run. A configuration
// the shorter of two runs never reached has no count to compare; every
// count both runs took must be equal.
func (fp fingerprint) compareWithEarlier(dir, key string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		b, err := json.Marshal(fp)
		if err != nil {
			return "", err
		}
		return "first traced run of this build and seed; counts saved", os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return "", err
	}
	var old fingerprint
	if err := json.Unmarshal(raw, &old); err != nil {
		return "", fmt.Errorf("read %s: %w", path, err)
	}
	var diffs []string
	n := 0
	for _, k := range sortedKeys(fp) {
		if ov, ok := old[k]; ok {
			n++
			if ov != fp[k] {
				diffs = append(diffs, fmt.Sprintf("%s: %d now, %d before", k, fp[k], ov))
			}
		}
	}
	if len(diffs) > 0 {
		return "", fmt.Errorf("exact counts differ from the earlier traced run: %s", strings.Join(diffs, "; "))
	}
	return fmt.Sprintf("%d counts equal the earlier traced run's", n), nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routerShardErrors sums groupform_router_shard_errors_total over the
// router's /metrics exposition.
func routerShardErrors(body []byte) float64 {
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "groupform_router_shard_errors_total{") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// digest is a short hash of the fingerprint, for comparing runs by eye.
func (fp fingerprint) digest() string {
	h := sha256.New()
	for _, k := range sortedKeys(fp) {
		fmt.Fprintf(h, "%s=%d\n", k, fp[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// exeKey names the running build, so exact counts are only compared
// between runs of identical code.
func exeKey() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}

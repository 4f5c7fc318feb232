package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"groupform/internal/dataset"
	"groupform/internal/server"
	"groupform/internal/shard"
)

// reqHeader carries the harness's request id, so traced handler spans
// can name the client request that caused them.
const reqHeader = "X-Bench-Req"

// wrapFunc decorates a role's handler (the tracer's span recorder, or
// nil for none).
type wrapFunc func(role string, h http.Handler) http.Handler

// topology is one booted program: a single Server, or a Router in
// front of shard-role Servers, each behind its own loopback listener.
type topology struct {
	router *shard.Router
	url    string // where clients post
	https  []*http.Server
	serves sync.WaitGroup
}

// boot is the program's own start-up, the span setup_s times: decode
// the catalog, build the server (or shards and router), listen, and
// prime the preference lists with one /form.
func boot(w workload, catalog []byte, prime []byte, wrap wrapFunc) (t *topology, readBinary time.Duration, err error) {
	t0 := time.Now()
	ds, err := dataset.ReadBinary(bytes.NewReader(catalog))
	if err != nil {
		return nil, 0, fmt.Errorf("read catalog: %w", err)
	}
	readBinary = time.Since(t0)
	t = &topology{}
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	if w.shards == 0 {
		s := server.New(server.Config{})
		if err := s.AddDataset(datasetName, ds); err != nil {
			return nil, 0, fmt.Errorf("add dataset: %w", err)
		}
		if t.url, err = t.listen(wrap("server", s)); err != nil {
			return nil, 0, err
		}
	} else {
		urls := make([]string, w.shards)
		for i := range urls {
			s := server.New(server.Config{Shard: i, Shards: w.shards})
			if err := s.AddDataset(datasetName, ds); err != nil {
				t.close()
				return nil, 0, fmt.Errorf("add dataset to shard %d: %w", i, err)
			}
			if urls[i], err = t.listen(wrap("shard"+strconv.Itoa(i), s)); err != nil {
				t.close()
				return nil, 0, err
			}
		}
		if t.router, err = shard.NewRouter(shard.Config{Shards: urls}); err != nil {
			t.close()
			return nil, 0, fmt.Errorf("build router: %w", err)
		}
		if t.url, err = t.listen(wrap("router", t.router)); err != nil {
			t.close()
			return nil, 0, err
		}
	}
	c := newClient()
	defer c.close()
	if st, body, err := c.post(t.url+"/form", prime, 0); err != nil || st != http.StatusOK {
		t.close()
		return nil, 0, fmt.Errorf("prime: status %d, err %v: %.200s", st, err, body)
	}
	return t, readBinary, nil
}

func (t *topology) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	t.https = append(t.https, srv)
	t.serves.Add(1)
	go func() {
		defer t.serves.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and connection and waits for the serve
// loops to return. The router's shard client rides the default
// transport, whose idle connections now point at closed servers.
func (t *topology) close() {
	for _, s := range t.https {
		s.Close()
	}
	t.serves.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// client is one keep-alive connection's worth of HTTP client with a
// reusable response buffer.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body and returns the status and the response bytes,
// which alias the client's buffer until the next post.
func (c *client) post(url string, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// formSample is one timed /form request.
type formSample struct {
	id    int64
	cfg   int
	start time.Time
	lat   time.Duration
	ok    bool
}

// readerLoop is the closed-loop reader: one client, next request only
// after the previous response. It walks the stream from *pos until
// the deadline; check judges each answer, and after (when set) runs
// outside the request's interval, where the traced run replays it.
func readerLoop(c *client, url string, in *inputs, pos *int, nextID *int64, until time.Time,
	check func(cfg int, body []byte) bool, after func(s formSample)) []formSample {
	out := make([]formSample, 0, 4096)
	for time.Now().Before(until) {
		cfg := in.reader[*pos%len(in.reader)]
		*pos++
		*nextID++
		s := formSample{id: *nextID, cfg: cfg, start: time.Now()}
		st, body, err := c.post(url+"/form", in.bodies[cfg], s.id)
		s.lat = time.Since(s.start)
		s.ok = err == nil && st == http.StatusOK && check(cfg, body)
		out = append(out, s)
		if after != nil {
			after(s)
		}
	}
	return out
}

// timedPhase runs the reader for d and returns its samples and the
// elapsed time.
func timedPhase(t *topology, in *inputs, pos *int, nextID *int64, d time.Duration,
	check func(int, []byte) bool, afterForm func(formSample)) ([]formSample, time.Duration) {
	start := time.Now()
	rc := newClient()
	defer rc.close()
	forms := readerLoop(rc, t.url, in, pos, nextID, start.Add(d), check, afterForm)
	return forms, time.Since(start)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/semantics"
	"groupform/internal/server"
	"groupform/internal/synth"
)

// datasetName is the registry name every workload serves under.
const datasetName = "main"

// Stream identifiers for seedFor: each generated stream draws from its
// own RNG, so adding draws to one stream never shifts another.
const (
	streamDataset = iota
	streamReader
)

// readerStreamLen is how many /form requests a reader stream holds.
// The fastest workload completes well under this many in a 60 s run;
// a reader that does run out wraps around.
const readerStreamLen = 6 * 4096

// workload is one traffic mix the benchmark can run.
type workload struct {
	name   string
	k, l   int
	shards int // 0: one Server; S > 0: a Router over S shard-role Servers
	gen    func(seed int64) (*dataset.Dataset, error)
}

func yahooSparse(seed int64) (*dataset.Dataset, error) {
	return synth.YahooLike(20000, 1000, seed)
}

var workloads = []workload{
	{name: "form-sparse", k: 5, l: 10, gen: yahooSparse},
	{name: "routed-s3", k: 5, l: 10, shards: 3, gen: yahooSparse},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// formConfig is one request configuration of the reader mix.
type formConfig struct {
	name string
	sem  semantics.Semantics
	agg  semantics.Aggregation
	// semName/aggName are the request-body vocabulary.
	semName, aggName string
}

// readerConfigs is the reader mix: LM/AV x Min/Max/Sum, each drawn
// equally often.
var readerConfigs = func() []formConfig {
	var out []formConfig
	for _, s := range []struct {
		n string
		v semantics.Semantics
	}{{"lm", semantics.LM}, {"av", semantics.AV}} {
		for _, a := range []struct {
			n string
			v semantics.Aggregation
		}{{"min", semantics.Min}, {"max", semantics.Max}, {"sum", semantics.Sum}} {
			out = append(out, formConfig{name: s.n + "-" + a.n, sem: s.v, agg: a.v, semName: s.n, aggName: a.n})
		}
	}
	return out
}()

func (c formConfig) core(w workload) core.Config {
	return core.Config{K: w.k, L: w.l, Semantics: c.sem, Aggregation: c.agg}
}

// seedFor derives stream s's RNG seed from the run seed through a
// splitmix64 mix (loadgen's workerSeed), so streams are disjoint and
// nearby run seeds give unrelated streams.
func seedFor(seed int64, s int) int64 {
	z := uint64(seed) + (uint64(s)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// inputs is everything a run sends, generated up front from the seed.
type inputs struct {
	catalog []byte   // dataset.WriteBinary bytes the boot decodes
	bodies  [][]byte // pre-encoded /form body per readerConfigs index
	reader  []int    // reader stream: indices into bodies
}

// makeInputs generates the dataset and the reader stream from seed.
func makeInputs(w workload, seed int64) (*inputs, *dataset.Dataset, error) {
	ds, err := w.gen(seedFor(seed, streamDataset))
	if err != nil {
		return nil, nil, fmt.Errorf("generate dataset: %w", err)
	}
	in := &inputs{}
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, ds); err != nil {
		return nil, nil, fmt.Errorf("encode catalog: %w", err)
	}
	in.catalog = buf.Bytes()
	for _, c := range readerConfigs {
		in.bodies = append(in.bodies, formBody(w, c))
	}
	in.reader = readerStream(seedFor(seed, streamReader))
	return in, ds, nil
}

func formBody(w workload, c formConfig) []byte {
	b, err := json.Marshal(server.FormRequest{Dataset: datasetName,
		FormParams: server.FormParams{K: w.k, L: w.l, Semantics: c.semName, Aggregation: c.aggName}})
	if err != nil {
		panic(err) // a fixed struct of scalars always encodes
	}
	return b
}

// readerStream is a balanced shuffle: every block of len(readerConfigs)
// requests holds each configuration once, in a seeded order, so the
// mix is identical whatever the run length.
func readerStream(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, readerStreamLen)
	for len(out) < readerStreamLen {
		out = append(out, rng.Perm(len(readerConfigs))...)
	}
	return out
}

// configCounts reports how many times each configuration appears in
// the first n requests of a reader stream, in readerConfigs order.
func configCounts(stream []int, n int) []int {
	out := make([]int, len(readerConfigs))
	for i := 0; i < n; i++ {
		out[stream[i%len(stream)]]++
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

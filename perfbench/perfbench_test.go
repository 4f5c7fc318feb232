package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// Small shapes of the three workloads, so the self-tests run the real
// harness in seconds.
var smallWorkloads = []workload{
	{name: "small-sparse", k: 5, l: 10, gen: func(seed int64) (*dataset.Dataset, error) {
		return synth.YahooLike(2000, 200, seed)
	}},
	{name: "small-routed", k: 5, l: 10, shards: 3, gen: func(seed int64) (*dataset.Dataset, error) {
		return synth.YahooLike(2000, 200, seed)
	}},
}

func sameInputs(a, b *inputs) bool {
	if !bytes.Equal(a.catalog, b.catalog) || len(a.reader) != len(b.reader) {
		return false
	}
	for i := range a.reader {
		if a.reader[i] != b.reader[i] {
			return false
		}
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			return false
		}
	}
	return true
}

// TestStreamsDeterministic: one seed gives byte-identical inputs, and
// another seed changes the catalog and the reader order.
func TestStreamsDeterministic(t *testing.T) {
	w := smallWorkloads[0]
	a, _, err := makeInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := makeInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInputs(a, b) {
		t.Fatal("seed 7 generated two different input sets")
	}
	c, _, err := makeInputs(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.catalog, c.catalog) {
		t.Error("seeds 7 and 8 generated the same catalog")
	}
	same := true
	for i := range a.reader {
		same = same && a.reader[i] == c.reader[i]
	}
	if same {
		t.Error("seeds 7 and 8 generated the same reader stream")
	}
	// Every block of the reader stream holds each configuration once.
	counts := configCounts(a.reader, 60*len(readerConfigs))
	for i, n := range counts {
		if n != 60 {
			t.Errorf("configuration %s drawn %d times in 60 blocks", readerConfigs[i].name, n)
		}
	}
}

// TestSeedStreamsDisjoint: the per-stream seeds of one run seed differ
// from each other and from those of the neighbouring run seeds.
func TestSeedStreamsDisjoint(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for s := streamDataset; s <= streamReader; s++ {
			v := seedFor(seed, s)
			if seen[v] {
				t.Fatalf("seedFor(%d, %d) repeats an earlier stream's seed", seed, s)
			}
			seen[v] = true
		}
	}
}

// TestExactCountsRepeat runs the traced benchmark twice per workload
// with one seed: both runs must check out, and the second must find
// every exact count equal to the first run's.
func TestExactCountsRepeat(t *testing.T) {
	dir := t.TempDir()
	for _, w := range smallWorkloads {
		var fps []fingerprint
		for i := 0; i < 2; i++ {
			r := newRun(w, 3, time.Second, dir)
			if err := r.execute(true); err != nil {
				t.Fatalf("%s run %d: %v", w.name, i, err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s run %d: correct=%v failed=%d attempted=%d", w.name, i, r.correct, r.failed, r.attempted)
			}
			for _, d := range perLayer {
				if _, ok := r.values[d.name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
				}
			}
			fps = append(fps, r.fp)
		}
		common := 0
		for k, v := range fps[0] {
			if v2, ok := fps[1][k]; ok {
				common++
				if v != v2 {
					t.Errorf("%s: count %s is %d in one run and %d in the other", w.name, k, v, v2)
				}
			}
		}
		if common == 0 {
			t.Errorf("%s: the two runs share no exact count", w.name)
		}
	}
}

// TestUntracedRunChecksOut runs each small workload once untraced and
// expects every end-to-end metric and no failure.
func TestUntracedRunChecksOut(t *testing.T) {
	for _, w := range smallWorkloads {
		r := newRun(w, 5, time.Second, t.TempDir())
		if err := r.execute(false); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct || r.failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d", w.name, r.correct, r.failed)
		}
		for _, d := range endToEnd {
			if v, ok := r.values[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, d.name, v)
			}
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json lists exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.listed), len(c.defs))
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s here", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

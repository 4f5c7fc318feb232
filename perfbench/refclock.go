package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The reference clock. The host's own speed drifts by ±15% from second
// to second and by up to a third over minutes, and a fixed CPU loop
// drifts with it (NOTES.md, Steadiness). So the timed phase runs a
// fixed chunk of work on the client's goroutine between /form
// requests, and the end-to-end latencies are divided by the median
// duration of the chunks run nearest to each request. One "ref" is one
// chunk's duration at that moment, about 1 ms on a 2.0 GHz Xeon vCPU.
// The chunk never touches the program, so a change to the program
// moves the ratio and the host's drift cancels out of it.
const (
	refEvery   = 20 * time.Millisecond // traffic between two chunks
	refWindow  = 15                    // chunks in the median a request is divided by
	refKeys    = 8000                  // ints the chunk sorts
	refBuckets = 2048                  // distinct map keys the chunk inserts
	refBytes   = 64 << 10              // bytes the chunk hashes
)

// refClock runs and times the reference chunk. It allocates only in
// newRefClock and when its sample slices grow, so the chunk neither
// triggers nor assists the program's garbage collection.
type refClock struct {
	perm, keys []int
	m          map[int]int
	buf        []byte
	sink       int
	at         []time.Time // chunk start times, ascending
	dur        []float64   // chunk durations in ms
	busy       time.Duration
	next       time.Time
	scratch    []float64
}

func newRefClock() *refClock {
	c := &refClock{perm: make([]int, refKeys), keys: make([]int, refKeys),
		m: make(map[int]int, refBuckets), buf: make([]byte, refBytes),
		at: make([]time.Time, 0, 4096), dur: make([]float64, 0, 4096)}
	for i := range c.perm {
		c.perm[i] = (i*7919 + 104729) % 1000003
	}
	for i := range c.buf {
		c.buf[i] = byte(i * 131)
	}
	c.chunk() // the first run fills the map's buckets
	return c
}

// chunk is the reference work: a sort, map inserts and a hash, with a
// working set that fits in the L2 cache.
func (c *refClock) chunk() {
	copy(c.keys, c.perm)
	sort.Ints(c.keys)
	clear(c.m)
	for i, k := range c.keys {
		c.m[k%refBuckets] += i
	}
	sum := sha256.Sum256(c.buf)
	c.sink += len(c.m) + int(sum[0])
}

// tick runs and records one chunk if refEvery has passed since the
// last one ended.
func (c *refClock) tick() {
	t0 := time.Now()
	if t0.Before(c.next) {
		return
	}
	c.chunk()
	d := time.Since(t0)
	c.at = append(c.at, t0)
	c.dur = append(c.dur, ms(d))
	c.busy += d
	c.next = t0.Add(d + refEvery)
}

// scale is the median duration in ms of the refWindow chunks nearest
// to t; NaN before any chunk ran.
func (c *refClock) scale(t time.Time) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	lo := max(0, min(i-refWindow/2, len(c.at)-refWindow))
	hi := min(len(c.at), lo+refWindow)
	c.scratch = append(c.scratch[:0], c.dur[lo:hi]...)
	return median(c.scratch)
}

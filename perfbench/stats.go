package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
)

// minBeyond is how many samples must lie above a percentile for it to
// be reported: fewer, and one slow outlier moves it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, which it sorts in place, and whether at least minBeyond samples
// lie above that rank: p90 needs 100 samples to be reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	return xs[rank-1], n-rank >= minBeyond
}

// median returns the median of xs, which it sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencySize is how many op latencies a phase keeps.
const latencySize = 4096

// latencySample keeps a uniform random sample of at most latencySize
// op latencies (reservoir sampling). Its storage is allocated before
// the phase starts, so the benchmark's own records take the same heap
// however many operations the phase runs, and peak_heap_mib does not
// grow with throughput. Phases of up to latencySize ops keep every
// latency. Safe for concurrent use.
type latencySample struct {
	mu sync.Mutex
	r  *rand.Rand // fixed seed: the workload seed drives only inputs
	n  int
	xs []float64
}

func newLatencySample() *latencySample {
	return &latencySample{r: rand.New(rand.NewPCG(1, 1)), xs: make([]float64, 0, latencySize)}
}

// add records one latency.
func (s *latencySample) add(x float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.xs) < cap(s.xs) {
		s.xs = append(s.xs, x)
	} else if i := s.r.IntN(s.n); i < len(s.xs) {
		s.xs[i] = x
	}
}

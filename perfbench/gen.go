package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/kernels"
	"repro/internal/sm"
)

// The workload seed reaches the simulator only through the inputs these
// generators draw. Each generator mixes the seed with its own stream
// constant, so adding a draw to one generator never shifts another.
const (
	streamCells    = 0x63656c6c // "cell"
	streamPoints   = 0x706f696e // "poin"
	streamLaunches = 0x6c6e6368 // "lnch"
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// cell is one (kernel, architecture) pair of the figure-7 matrix.
type cell struct {
	bench *kernels.Benchmark
	arch  sm.Arch
}

// cellOrder returns every cell of the 22-kernel × 5-architecture matrix
// in a seed-shuffled order.
func cellOrder(seed uint64) []cell {
	var cells []cell
	for _, a := range sm.Architectures() {
		for _, b := range kernels.All() {
			cells = append(cells, cell{b, a})
		}
	}
	r := newRand(seed, streamCells)
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// point is one memory-system sweep point: the L2 capacity and the NoC
// port bandwidth. Everything else stays at the device defaults.
type point struct {
	l2KiB      int
	nocBytesPC float64
}

func (p point) String() string {
	return fmt.Sprintf("L2 %d KiB, NoC %.2f B/cycle", p.l2KiB, p.nocBytesPC)
}

// The sweep space: L2 capacity in 64 KiB steps from 64 KiB to the
// default 768 KiB, so the larger kernels' footprints (up to 196 KB) fall
// both inside and outside the L2; NoC port bandwidth in quarter steps
// from 2 B/cycle up to the 32 B/cycle default, the range the
// memory-hierarchy experiment sweeps (experiments.memsysBandwidths).
const (
	l2Steps   = 12
	l2StepKiB = 64
	nocSteps  = 121
	nocMin    = 2.0
	nocStep   = 0.25
)

// defaultPoint is the device's default memory system. Set-up uses it to
// warm up and to record traces, so the generator never draws it.
var defaultPoint = point{l2KiB: 768, nocBytesPC: 32}

// pointGen draws sweep points without repetition: a repeated point
// would be a pure cache hit for the trace-replay workload. Points come
// in blocks of l2Steps, a Latin hypercube over the space: each block
// visits every L2 capacity once and every one of l2Steps NoC-bandwidth
// bins once, in seed-shuffled pairings. Every run thus weighs the space
// alike, whatever its seed. Safe for concurrent use.
type pointGen struct {
	mu   sync.Mutex
	r    *rand.Rand
	seen map[point]bool
	n    int
	l2   []int // the current block's L2 step per slot
	bins []int // the current block's NoC bin per slot
}

func newPointGen(seed uint64) *pointGen {
	return &pointGen{r: newRand(seed, streamPoints), seen: map[point]bool{defaultPoint: true}}
}

// next returns the next unseen point and its index in the draw order.
func (g *pointGen) next() (point, int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.seen) >= l2Steps*nocSteps {
		return point{}, 0, fmt.Errorf("sweep space of %d points exhausted", l2Steps*nocSteps)
	}
	slot := g.n % l2Steps
	if slot == 0 {
		g.l2, g.bins = g.r.Perm(l2Steps), g.r.Perm(l2Steps)
	}
	l2 := l2StepKiB * (1 + g.l2[slot])
	lo, hi := g.bins[slot]*nocSteps/l2Steps, (g.bins[slot]+1)*nocSteps/l2Steps
	// Prefer an unseen bandwidth in the slot's bin, then any unseen
	// bandwidth at the slot's capacity, then any unseen point.
	var cands []point
	for _, r := range [][2]int{{lo, hi}, {0, nocSteps}} {
		for k := r[0]; k < r[1]; k++ {
			if p := (point{l2, nocMin + nocStep*float64(k)}); !g.seen[p] {
				cands = append(cands, p)
			}
		}
		if len(cands) > 0 {
			break
		}
	}
	if len(cands) == 0 {
		for i := range l2Steps {
			for k := range nocSteps {
				if p := (point{l2StepKiB * (1 + i), nocMin + nocStep*float64(k)}); !g.seen[p] {
					cands = append(cands, p)
				}
			}
		}
	}
	p := cands[g.r.IntN(len(cands))]
	g.seen[p] = true
	g.n++
	return p, g.n - 1, nil
}

// launchSpec describes one generated stream launch: a progen kernel
// and a small grid.
type launchSpec struct {
	progenSeed uint64
	regions    int
	grid       int // CTAs, 1..4
	block      int // threads per CTA, 32..128 in warps of 32
}

// launchShapes is the number of grid shapes: 1-4 CTAs × 1-4 warps.
const launchShapes = 16

// launchSpecs draws n stream launches. Grid shapes and region counts
// are balanced across the set — each shape and each count from 4 to 12
// recurs equally often — while the kernels, the pairing of kernels with
// shapes, and the launch order come from the seed. Balancing keeps the
// per-launch work of a set from drifting with the seed.
func launchSpecs(seed uint64, n int) []launchSpec {
	r := newRand(seed, streamLaunches)
	out := make([]launchSpec, n)
	for i := range out {
		shape := i % launchShapes
		out[i] = launchSpec{
			progenSeed: r.Uint64() | 1,
			regions:    4 + (i/launchShapes)%9,
			grid:       1 + shape%4,
			block:      32 * (1 + shape/4),
		}
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

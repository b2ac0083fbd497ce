package device

import (
	"context"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/kernels"
	"repro/internal/replay"
	"repro/internal/sm"
)

// Cross-figure simulation memoization and the cost registry behind the
// batch scheduler.
//
// # Cache key soundness
//
// A cached result may be returned in place of a simulation only if
// every input that can influence the result is part of the key:
//
//   - the benchmark (its generator and kernel are deterministic, so the
//     name identifies the launch),
//   - the full SM configuration, digested by sm.Config.Fingerprint —
//     reflection-exhaustive, so a future Config field cannot silently
//     alias two different configurations,
//   - whether the entry ran through the wave-partitioned path (the
//     partitioned timing model starts every wave on a cold SM, so its
//     Stats legitimately differ from the whole-grid run),
//   - the modeled memory system (L2 + NoC parameters), and the SM
//     count when it shapes the result (partitioned packing and the
//     shared-clock contention model read it; for unpartitioned
//     flat-memory runs it is normalized away, because those results
//     are SM-count independent by construction).
//
// Host-side parallelism (worker count) is deliberately absent: results
// are bit-identical for every worker count, which the determinism
// suite asserts, so caching across worker settings is sound.
type simKey struct {
	bench       string
	cfgFP       uint64
	partitioned bool
	sms         int
	memsysFP    uint64 // 0 under the flat-latency DRAM model
}

// simKeyFor derives the cache key for one suite entry on this device.
func (d *Device) simKeyFor(b *kernels.Benchmark) simKey {
	k := simKey{
		bench:       b.Name,
		cfgFP:       d.cfgFP,
		partitioned: d.partition,
		sms:         d.sms,
		memsysFP:    d.memsysFP,
	}
	if !d.partition && !d.memsys {
		k.sms = 1 // result provably SM-count independent; widen the hit range
	}
	return k
}

// SimCache memoizes oracle-validated suite simulations across RunSuite
// passes and across devices (pass one cache to several devices via
// WithSimCache — the experiments runner shares one across all its
// figures). It is safe for concurrent use and deduplicates in-flight
// work: concurrent passes asking for the same cell run it once, the
// rest wait for the result. Cached results are shared — callers must
// treat a SuiteResult.Result served from the cache as read-only.
//
// Entries never expire: a key is only ever associated with one value,
// because every key input is part of the key (see the key comment
// above) and the simulator is deterministic. Memory is bounded by the
// number of distinct (benchmark, configuration) cells actually run.
type SimCache struct {
	mu sync.Mutex
	m  map[simKey]*simEntry //sbwi:guardedby mu

	// traces memoizes recorded per-thread execution traces for the
	// trace-replay engine (WithTraceReplay). The key is deliberately
	// coarser than simKey — just the benchmark and the *functional*
	// fingerprint — because a trace is valid for every timing
	// configuration (sm.Config.FunctionalFingerprint documents the
	// split): one recording serves a whole sweep.
	traces map[traceKey]*traceEntry //sbwi:guardedby mu

	hits, misses uint64 //sbwi:guardedby mu
}

type simEntry struct {
	done chan struct{} // closed once the fill attempt finished
	//sbwi:nolock guarded by the owning SimCache's mu; reads also gated by the done close
	res *sm.Result // nil if the fill failed (entry already removed)
}

// traceKey identifies one recorded trace: the benchmark (deterministic
// generator + kernel, so the name pins the launch) and the functional
// configuration fingerprint (the executed program variant).
type traceKey struct {
	bench  string
	funcFP uint64
}

type traceEntry struct {
	done chan struct{} // closed once the recording attempt finished
	//sbwi:nolock guarded by the owning SimCache's mu; reads also gated by the done close
	tr *replay.Trace // nil if the recording failed (entry already removed)
}

// NewSimCache returns an empty simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{m: make(map[simKey]*simEntry), traces: make(map[traceKey]*traceEntry)}
}

// Hits returns how many lookups were served from a completed entry.
func (c *SimCache) Hits() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.hits }

// Misses returns how many lookups started a fill.
func (c *SimCache) Misses() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.misses }

// Len returns the number of completed entries.
func (c *SimCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.m { //sbwi:unordered pure count; result independent of visit order
		select {
		case <-e.done:
			if e.res != nil {
				n++
			}
		default:
		}
	}
	return n
}

// getOrRun returns the cached result for key, or runs fill once and
// caches its result. Concurrent callers with the same key wait for the
// in-flight fill instead of duplicating it; if the fill fails its
// error goes to the filling caller and waiters retry (a failed or
// aborted result is never cached — see fill below, which also holds
// when the filler panics). The returned Result is shared: callers must
// not mutate it.
func (c *SimCache) getOrRun(ctx context.Context, key simKey, fill func() (*sm.Result, error)) (*sm.Result, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &simEntry{done: make(chan struct{})}
			c.m[key] = e
			c.misses++
			c.mu.Unlock()
			return c.fill(key, e, fill)
		}
		select {
		case <-e.done:
			if e.res != nil {
				c.hits++
				c.mu.Unlock()
				return e.res, nil
			}
			// The fill we would have waited on failed (its goroutine
			// already removed the entry, unless a new filler replaced
			// it); loop to pick up the replacement or become the new
			// filler ourselves.
			c.mu.Unlock()
			continue
		default:
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			// Loop: either pick up the result or become the new filler.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill runs one cache fill and publishes its outcome exactly once —
// also when fn panics: the deferred cleanup runs during the unwind,
// removing the entry and closing done so waiters retry (or become the
// next filler) instead of hanging on a never-closed channel, while the
// panic itself keeps propagating to the caller's recover boundary for
// attribution. Failed or aborted results are never stored.
func (c *SimCache) fill(key simKey, e *simEntry, fn func() (*sm.Result, error)) (res *sm.Result, err error) {
	completed := false
	defer func() {
		c.mu.Lock()
		if completed && err == nil {
			e.res = res
		} else {
			delete(c.m, key) // let a waiter (or the next pass) retry
		}
		close(e.done)
		c.mu.Unlock()
	}()
	res, err = fn()
	completed = true
	return res, err
}

// traceOrRecord returns the cached execution trace for key, or calls
// record once to produce it (alongside the recording run's full
// result, which doubles as that sweep point's result). Concurrent
// callers with the same key wait for the in-flight recording instead
// of duplicating it, exactly like getOrRun; a failed recording is not
// cached, so a waiter (or the next pass) retries. On a hit the result
// is (trace, nil, nil) — only the recording caller ever sees a
// non-nil *sm.Result. Note that a non-replayable trace is still a
// cached verdict: later points skip straight to full simulation
// without re-deriving (or re-logging) the reason.
func (c *SimCache) traceOrRecord(ctx context.Context, key traceKey, record func() (*replay.Trace, *sm.Result, error)) (*replay.Trace, *sm.Result, error) {
	for {
		c.mu.Lock()
		e, ok := c.traces[key]
		if !ok {
			e = &traceEntry{done: make(chan struct{})}
			c.traces[key] = e
			c.mu.Unlock()
			return c.record(key, e, record)
		}
		select {
		case <-e.done:
			if e.tr != nil {
				c.mu.Unlock()
				return e.tr, nil, nil
			}
			// The recording we would have waited on failed; loop to pick
			// up a replacement or become the new recorder ourselves.
			c.mu.Unlock()
			continue
		default:
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			// Loop: either pick up the trace or become the new recorder.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// record is fill's twin for the trace cache: publish exactly once, keep
// failed recordings out of the cache, and survive a panicking recorder
// without stranding waiters.
func (c *SimCache) record(key traceKey, e *traceEntry, fn func() (*replay.Trace, *sm.Result, error)) (tr *replay.Trace, res *sm.Result, err error) {
	completed := false
	defer func() {
		c.mu.Lock()
		if completed && err == nil {
			e.tr = tr
		} else {
			delete(c.traces, key) // let a waiter (or the next pass) retry
		}
		close(e.done)
		c.mu.Unlock()
	}()
	tr, res, err = fn()
	completed = true
	return tr, res, err
}

// The cost registry: measured per-cell simulation costs feed the
// longest-job-first batch scheduler. Costs are modeled cycle counts —
// deterministic and host-independent — so they only ever steer
// dispatch order, never results; the registry is process-wide because
// a better schedule is useful across devices and cache instances (and
// harmless when stale). Before a cell has run once, dispatch falls
// back to a static estimate.
var simCosts sync.Map // costKey -> int64 (Stats.Cycles of a completed run)

// costKey identifies a cell for scheduling purposes: partitioning and
// SM count barely move the host cost of simulating a benchmark, so the
// registry deliberately keys coarser than the result cache.
type costKey struct {
	bench string
	cfgFP uint64
}

// recordCost memoizes a completed run's modeled cycle count.
func recordCost(b *kernels.Benchmark, cfgFP uint64, res *sm.Result) {
	simCosts.Store(costKey{b.Name, cfgFP}, res.Stats.Cycles)
}

// estimatedCost returns the scheduling weight for a suite entry: the
// memoized measured cycles after the cell has run once, otherwise the
// calibrated staticCost estimate (calibration.go).
func estimatedCost(b *kernels.Benchmark, cfgFP uint64) int64 {
	if v, ok := simCosts.Load(costKey{b.Name, cfgFP}); ok {
		return v.(int64)
	}
	return staticCost(b)
}

// memsysFingerprint digests the modeled memory system parameters for
// the cache key; 0 when the flat-latency DRAM model is in effect.
func (d *Device) memsysFingerprint() uint64 {
	if !d.memsys {
		return 0
	}
	fp := fingerprint.Hash(d.l2cfg, d.noccfg)
	if fp == 0 {
		fp = 1 // reserve 0 for "no memory system modeled"
	}
	return fp
}

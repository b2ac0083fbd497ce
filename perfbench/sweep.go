package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/fingerprint"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// sweepSMs is the modeled SM count of the sweep workloads: enough for
// waves to contend in the shared L2 and NoC.
const sweepSMs = 4

// digestPoints is how many leading sweep points the digest covers. The
// two sweep workloads share the point sequence, so for one seed their
// digests must agree.
const digestPoints = 4

// sweep is the memsys-sweep workload and, with replay set, the
// replay-sweep workload: each operation runs the full suite on SBI+SWI
// at a fresh memory-system point.
type sweep struct {
	replay bool
	queue  *device.RunQueue
	points *pointGen
	suite  []*kernels.Benchmark

	// cache and log belong to the replay workload: one SimCache holds
	// every trace, and log counts the fallback lines the device writes.
	cache *device.SimCache
	log   *lineCounter

	mu      sync.Mutex
	digests map[int]uint64 // sweep-point index -> digest of its results
}

func setupSweep(replay bool) func(context.Context, *setupEnv) (bench, error) {
	return func(ctx context.Context, env *setupEnv) (bench, error) {
		if err := prepareSuite(env); err != nil {
			return nil, err
		}
		w := &sweep{
			replay:  replay,
			queue:   device.NewRunQueue(env.par),
			points:  newPointGen(env.seed),
			suite:   kernels.All(),
			digests: make(map[int]uint64),
		}
		if !replay {
			// Warm up the memory-system path at the default point, which
			// the generator never draws.
			id := env.tr.begin("warmup", env.span, 0)
			_, err := w.runPoint(ctx, defaultPoint, false, env.tr, id, 0)
			env.tr.end(id)
			return w, err
		}
		w.cache, w.log = device.NewSimCache(), &lineCounter{}
		id := env.tr.begin("replay.record", env.span, 0)
		_, err := w.runPoint(ctx, defaultPoint, true, env.tr, id, 0)
		env.tr.end(id)
		if err != nil {
			return nil, err
		}
		// Check replay against full simulation at the first drawn point:
		// its statistics must match bit for bit.
		p, i, err := w.points.next()
		if err != nil {
			return nil, err
		}
		id = env.tr.begin("warmup", env.span, 0)
		full, err := w.runPoint(ctx, p, false, env.tr, id, 0)
		var replayed []*device.SuiteResult
		if err == nil {
			replayed, err = w.runPoint(ctx, p, true, env.tr, id, 0)
		}
		env.tr.end(id)
		if err != nil {
			return nil, err
		}
		for k := range full {
			a, b := full[k].Result, replayed[k].Result
			var err error
			if a.Stats != b.Stats || a.DeviceCycles() != b.DeviceCycles() {
				err = fmt.Errorf("%s at point %d (%v): replayed stats differ from full simulation", full[k].Name(), i, p)
			}
			env.check(err)
		}
		return w, nil
	}
}

// device builds the device for one sweep point.
func (w *sweep) device(p point, replay bool) (*device.Device, error) {
	l2 := mem.DefaultL2()
	l2.Bytes = p.l2KiB * 1024
	nc := noc.Default()
	nc.BytesPerCycle = p.nocBytesPC
	opts := []device.Option{
		device.WithArch(sm.ArchSBISWI),
		device.WithSMs(sweepSMs),
		device.WithGridPartition(true),
		device.WithL2(l2),
		device.WithInterconnect(nc),
		device.WithRunQueue(w.queue),
	}
	if replay {
		opts = append(opts, device.WithTraceReplay(true), device.WithSimCache(w.cache), device.WithReplayLog(w.log))
	}
	return device.New(opts...)
}

// runPoint runs the suite at one point. RunSuite checks each entry's
// final memory against the kernel's oracle and reports a mismatch as
// that entry's error.
func (w *sweep) runPoint(ctx context.Context, p point, replay bool, tr *tracer, parent, opID int64) ([]*device.SuiteResult, error) {
	d, err := w.device(p, replay)
	if err != nil {
		return nil, err
	}
	id := tr.begin("device.RunSuite", parent, opID)
	rs, err := d.RunSuite(ctx, w.suite)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("%v: %w", p, r.Err)
		}
	}
	return rs, nil
}

func (w *sweep) op(ctx context.Context, _ int, tr *tracer, parent, opID int64) (opResult, error) {
	p, i, err := w.points.next()
	if err != nil {
		return opResult{}, err
	}
	rs, err := w.runPoint(ctx, p, w.replay, tr, parent, opID)
	if err != nil {
		return opResult{}, err
	}
	var out opResult
	hs := make([]uint64, len(rs))
	for k, r := range rs {
		out.addResult(r.Result)
		hs[k] = fingerprint.Hash(r.Result.Stats, r.Result.DeviceCycles())
	}
	w.mu.Lock()
	w.digests[i] = fingerprint.Hash(p.l2KiB, p.nocBytesPC, hs)
	w.mu.Unlock()
	return out, nil
}

// pass is one block of the point generator, which visits every L2
// capacity and every NoC-bandwidth bin once: ending on whole blocks
// keeps the mix of cheap and queue-heavy points alike from run to run.
func (w *sweep) pass() int { return l2Steps }

// finish digests the first digestPoints points, running any the timed
// phase did not reach.
func (w *sweep) finish(ctx context.Context) (uint64, map[cell]sm.Stats, error) {
	// Point 0 is the replay workload's set-up check, so both workloads
	// digest from point 1.
	const first = 1
	for {
		w.mu.Lock()
		missing := false
		for i := first; i < first+digestPoints; i++ {
			if _, ok := w.digests[i]; !ok {
				missing = true
			}
		}
		w.mu.Unlock()
		if !missing {
			break
		}
		if _, err := w.op(ctx, 0, nil, 0, 0); err != nil {
			return 0, nil, err
		}
	}
	hs := make([]uint64, digestPoints)
	for i := range hs {
		hs[i] = w.digests[first+i]
	}
	return fingerprint.Hash(hs), nil, nil
}

// lineCounter is an io.Writer that counts the lines written to it.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte{'\n'})))
	return len(p), nil
}

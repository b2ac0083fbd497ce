package device

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/replay"
	"repro/internal/sm"
)

// The wave engine and the modeled shared memory system.
//
// Every launch runs through one driver, runWaves. A launch is a list of
// CTA waves on a set of SM slots: a whole-grid launch is one wave on
// one slot; a partitioned launch (WithGridPartition) splits the grid
// into SM-sized waves (sm.ResidentCTAs) and puts wave j on slot
// j mod N, N the device's SM count. Waves on one slot execute
// back-to-back: each wave's device-time start offset is the sum of its
// predecessors' cycles on that slot, and Result.SMCycles reports the
// per-slot totals.
//
// One goroutine drives the live waves as steppable sm.Runner
// instances, always advancing the SM whose local clock maps to the
// earliest device time (minimum device time, lowest slot index on
// ties). When no other wave can observe the picked one — it is the
// only live wave (every whole-grid launch, and the tail of a
// partitioned one), or no shared memory system links the SMs — the
// driver instead runs it to completion with sm.Runner.Run, the loop a
// plain sm.Run uses. That is exact: there is no other access stream to
// interleave with.
//
// With WithL2 / WithInterconnect every SM's L1 misses and write-through
// stores enter a crossbar port (package noc), cross into the banked,
// MSHR-backed shared L2 (mem.L2) and the single DRAM port behind it at
// the cycle they leave the L1, and the returned ready time flows
// straight back into scoreboard wake-up (l2Port below). Each slot's
// port carries its wave's device-time offset, so the shared L2 and
// crossbar observe one globally ordered, non-decreasing access stream
// — the idle fast-forward inside a step emits no traffic, so
// single-step granularity cannot reorder accesses across SMs. Because
// the driver is serial and its pick rule is a pure function of the
// configuration, the access order, every contention counter and all
// merged Stats are bit-identical across host worker counts and repeat
// runs. They do depend on the SM count: how many waves share the
// hierarchy at once is an architectural parameter.
//
// Under the flat-latency model waves share nothing, so the pick order
// cannot change any wave's result and partitioned Stats are identical
// for every SM count; the SM count only decides the packing.
//
// A partitioned wave runs on its own snapshot of the pre-launch global
// image and the images are folded back with exec.MergeWaves, which
// asserts the write-sharing contract (different CTAs may only write the
// same location with the same value). A whole-grid launch runs over the
// live image, and a replayed launch touches no memory at all.

// l2Port is the mem.Lower an SM's L1 talks to: one crossbar port in
// front of the shared L2. offset maps the driving SM's wave-local clock
// onto the shared device clock (zero for unpartitioned runs); the port
// translates outgoing cycles into device time and returned ready times
// back, so the SM never observes the shared clock directly.
type l2Port struct {
	xbar       *noc.Crossbar
	port       int
	l2         *mem.L2
	blockBytes int
	offset     int64

	// faults, when armed, fires the mem-access fault site on every
	// access. Access cannot return an error, so error-class faults are
	// raised as panics (faultinject.Plan.MustFire) and recovered at the
	// owning launch's guard boundary.
	faults *faultinject.Plan
}

//sbwi:hotpath
func (p *l2Port) Access(now int64, store bool, block uint32) int64 {
	if p.faults != nil {
		p.faults.MustFire(faultinject.SiteMemAccess)
	}
	deliver := p.xbar.Send(p.port, now+p.offset, p.blockBytes)
	return p.l2.Access(deliver, block, store) - p.offset
}

// smSlot is one SM's place in the wave driver: the wave currently
// simulating on it, the crossbar port its L1 uses (nil under flat
// latency), and the device cycle at which that wave started (the sum
// of its predecessors' cycles on this SM).
type smSlot struct {
	run    *sm.Runner
	port   *l2Port
	wave   int   // index into waves of the running wave
	offset int64 // device-time start of the running wave
}

// runWaves simulates a launch through the wave driver; see the file
// comment for the model and the determinism argument. rec/tr thread the
// trace-replay machinery into every wave (see Device.runTraced).
func (d *Device) runWaves(ctx context.Context, l *exec.Launch, rec *replay.Recorder, tr *replay.Trace) (*sm.Result, error) {
	waves := [][2]int{{0, l.GridDim}}
	if n := sm.ResidentCTAs(d.cfg, l); d.partition && n > 0 {
		// An over-subscribed block (n == 0) stays whole for the SM to
		// reject with its precise error.
		if w := exec.PartitionWaves(l.GridDim, n); len(w) > 1 {
			waves = w
		}
	}
	whole := len(waves) == 1
	nslots := d.sms
	if whole {
		nslots = 1
	}

	snapshot := !whole && tr == nil
	var base []byte
	if snapshot {
		base = bytes.Clone(l.Global)
	}

	var l2 *mem.L2
	var xbar *noc.Crossbar
	if d.memsys {
		l2 = mem.NewL2(d.l2cfg, d.cfg.Mem)
		xbar = noc.New(d.noccfg, nslots)
	}

	runs := make([]*sm.Result, len(waves))
	images := make([][]byte, len(waves))
	slots := make([]smSlot, nslots)
	start := func(sl *smSlot, w int) error {
		wl := l
		if snapshot {
			wl = l.CloneWithGlobal(base)
		}
		opts, err := waveOpts(rec, tr, waves[w][0], waves[w][1])
		if err != nil {
			return err
		}
		if sl.port != nil {
			sl.port.offset = sl.offset
			opts.Lower = sl.port
		}
		run, err := sm.NewRunner(d.cfg, wl, waves[w][0], waves[w][1], opts)
		if err != nil {
			return err
		}
		sl.run, sl.wave, images[w] = run, w, wl.Global
		return nil
	}
	live := 0
	for i := range slots {
		if xbar != nil {
			slots[i].port = &l2Port{xbar: xbar, port: i, l2: l2, blockBytes: d.cfg.Mem.BlockBytes, faults: d.faults}
		}
		if i < len(waves) {
			if err := start(&slots[i], i); err != nil {
				return nil, err
			}
			live++
		}
	}

	for steps := 0; live > 0; steps++ {
		// Advance the SM whose local clock maps to the earliest device
		// time; strict < makes ties resolve to the lowest SM index.
		best := -1
		var bestT int64
		for i := range slots {
			sl := &slots[i]
			if sl.run == nil {
				continue
			}
			if t := sl.offset + sl.run.Now(); best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		sl := &slots[best]
		if live == 1 || xbar == nil {
			if err := sl.run.Run(ctx); err != nil {
				return nil, err
			}
		} else {
			if steps&1023 == 0 {
				select {
				case <-ctx.Done():
					return nil, sl.run.Diagnose(ctx)
				default:
				}
			}
			done, err := sl.run.Step()
			if err != nil {
				return nil, err
			}
			if !done {
				continue
			}
		}
		res := sl.run.Result()
		runs[sl.wave] = res
		sl.offset += res.Stats.Cycles
		sl.run = nil
		live--
		if next := sl.wave + nslots; next < len(waves) {
			if err := start(sl, next); err != nil {
				return nil, err
			}
			live++
		}
	}

	out := runs[0]
	if !whole {
		if snapshot {
			if err := d.fire(faultinject.SiteWaveMerge); err != nil {
				return nil, err
			}
			if err := exec.MergeWaves(l.Global, base, images); err != nil {
				return nil, fmt.Errorf("device: %s: %w", l.Prog.Name, err)
			}
		}
		out = &sm.Result{
			Trace:    runs[0].Trace, // wave clocks overlap; keep the first wave's trace
			Waves:    make([]sm.Stats, len(runs)),
			SMCycles: make([]int64, nslots),
		}
		for i := range runs {
			out.Waves[i] = runs[i].Stats
			out.Stats.Merge(&runs[i].Stats)
		}
		for i := range slots {
			out.SMCycles[i] = slots[i].offset
		}
	}
	if xbar != nil {
		out.NoCPorts = make([]noc.Stats, nslots)
		for i := range out.NoCPorts {
			out.NoCPorts[i] = xbar.PortStats(i)
		}
		out.Stats.Mem.L2 = l2.Stats
		out.Stats.Mem.NoC = xbar.Stats()
	}
	return out, nil
}

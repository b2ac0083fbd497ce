package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/device"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// prepareSuite generates the suite's inputs from the kernels' sources
// and input generators — assembly, the thread-frontier pass, the
// pristine images and the Go oracles — and checks them against the
// kernels package's memoized programs and oracles, which the device
// reads and which this call warms. A mismatch counts as a failed check.
func prepareSuite(env *setupEnv) error {
	for _, b := range kernels.All() {
		id := env.tr.begin("asm.assemble", env.span, 0)
		p, err := asm.Assemble(b.Name, b.Source)
		env.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		id = env.tr.begin("cfg.insert_syncs", env.span, 0)
		var tf *isa.Program
		err = cfg.AnnotateReconvergence(p)
		if err == nil {
			tf, err = cfg.InsertSyncs(p)
		}
		env.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}

		id = env.tr.begin("kernels.setup", env.span, 0)
		img, params := b.Setup(b)
		b.Reference(b, img, params)
		memoTF, errTF := b.Program(true)
		memoPlain, errPlain := b.Program(false)
		expected := b.Expected()
		env.tr.end(id)
		if errTF != nil || errPlain != nil {
			return fmt.Errorf("%s: %v %v", b.Name, errTF, errPlain)
		}
		var errAsm, errImg error
		if tf.Disassemble() != memoTF.Disassemble() || p.Disassemble() != memoPlain.Disassemble() {
			errAsm = fmt.Errorf("%s: fresh assembly differs from the kernels package's program", b.Name)
		}
		if !bytes.Equal(img, expected) {
			errImg = fmt.Errorf("%s: fresh oracle image differs from the kernels package's", b.Name)
		}
		env.check(errAsm)
		env.check(errImg)
	}
	return nil
}

// fig7 runs every cell of the figure-7 matrix once, on one flat-memory
// device per architecture sharing one run queue, and returns each
// cell's statistics.
func fig7(ctx context.Context, par int) (map[cell]sm.Stats, error) {
	devs, err := archDevices(par)
	if err != nil {
		return nil, err
	}
	cells := cellOrder(0)
	pend := make([]*device.Pending, len(cells))
	for i, c := range cells {
		pend[i] = devs[c.arch].SubmitBenchmark(ctx, c.bench)
	}
	out := make(map[cell]sm.Stats, len(cells))
	var firstErr error
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[cells[i]] = res.Stats
	}
	return out, firstErr
}

// archDevices builds one flat-memory device per architecture, all
// admitted by one run queue of par slots.
func archDevices(par int) (map[sm.Arch]*device.Device, error) {
	q := device.NewRunQueue(par)
	devs := make(map[sm.Arch]*device.Device)
	for _, a := range sm.Architectures() {
		d, err := device.New(device.WithArch(a), device.WithRunQueue(q))
		if err != nil {
			return nil, err
		}
		devs[a] = d
	}
	return devs, nil
}

// The paper's figure-7 geometric-mean speedups over the baseline, in
// percent (bench_test.go quotes the same numbers).
var paperMeans = []struct {
	regular bool
	arch    sm.Arch
	pct     float64
}{
	{true, sm.ArchSBI, 15},
	{true, sm.ArchSWI, 25},
	{false, sm.ArchSBI, 41},
	{false, sm.ArchSWI, 33},
	{false, sm.ArchSBISWI, 40},
}

// excludeFromMeans lists the kernels figure 7's means leave out: TMD
// measures the reconvergence scheme rather than SBI/SWI, and WriteStorm
// is a synthetic memory-system anchor.
var excludeFromMeans = map[string]bool{"TMD1": true, "TMD2": true, "WriteStorm": true}

// paperGap returns the mean absolute gap, in percentage points, between
// the measured figure-7 gmean speedups and the paper's five quoted
// means.
func paperGap(stats map[cell]sm.Stats) (float64, error) {
	var gap float64
	for _, m := range paperMeans {
		var logSum float64
		var n int
		for _, b := range kernels.All() {
			if b.Regular != m.regular || excludeFromMeans[b.Name] {
				continue
			}
			s, ok1 := stats[cell{b, m.arch}]
			base, ok2 := stats[cell{b, sm.ArchBaseline}]
			if !ok1 || !ok2 {
				return 0, fmt.Errorf("figure 7: %s has no %s or baseline result", b.Name, m.arch)
			}
			logSum += math.Log(s.IPC() / base.IPC())
			n++
		}
		gap += math.Abs(100*(math.Exp(logSum/float64(n))-1) - m.pct)
	}
	return gap / float64(len(paperMeans)), nil
}

// suiteFlat is the suite-flat workload: the figure-7 path, 22 kernels
// on 5 architectures with flat memory, one cell per operation.
type suiteFlat struct {
	devs  map[sm.Arch]*device.Device
	cells []cell
	ref   map[cell]sm.Stats // warm-up results every op must repeat
}

func setupSuiteFlat(ctx context.Context, env *setupEnv) (bench, error) {
	if err := prepareSuite(env); err != nil {
		return nil, err
	}
	devs, err := archDevices(env.par)
	if err != nil {
		return nil, err
	}
	// The warm-up runs every cell once: it fills the device's measured
	// cost registry that orders admission, and it is the reference each
	// timed operation must repeat bit for bit.
	id := env.tr.begin("warmup", env.span, 0)
	ref, err := fig7(ctx, env.par)
	env.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &suiteFlat{devs: devs, cells: cellOrder(env.seed), ref: ref}, nil
}

func (w *suiteFlat) op(ctx context.Context, _ int, tr *tracer, parent, opID int64) (opResult, error) {
	c := w.cells[int(opID-1)%len(w.cells)]
	id := tr.begin("device.SubmitBenchmark", parent, opID)
	res, err := w.devs[c.arch].SubmitBenchmark(ctx, c.bench).Wait()
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	if res.Stats != w.ref[c] {
		return opResult{}, fmt.Errorf("%s on %s: stats differ from the warm-up run", c.bench.Name, c.arch)
	}
	return resultOf(res), nil
}

func (w *suiteFlat) pass() int { return len(w.cells) }

func (w *suiteFlat) finish(context.Context) (uint64, map[cell]sm.Stats, error) {
	return digestCells(w.ref), w.ref, nil
}

// digestCells hashes every cell's statistics in figure-7 order.
func digestCells(stats map[cell]sm.Stats) uint64 {
	var hs []uint64
	for _, a := range sm.Architectures() {
		for _, b := range kernels.All() {
			hs = append(hs, fingerprint.Hash(stats[cell{b, a}]))
		}
	}
	return fingerprint.Hash(hs)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/sm"
)

// streamLaunchCount is how many distinct launches one set-up generates
// (each grid shape with each region count twice); the timed phase
// cycles through them.
const streamLaunchCount = 2 * launchShapes * 9

// streamInput is one generated launch with its oracle.
type streamInput struct {
	prog  *isa.Program // thread-frontier variant, as SBI+SWI runs it
	grid  int
	block int
	want  []byte   // final memory from the reference interpreter
	ref   sm.Stats // warm-up statistics every launch must repeat
}

func (in *streamInput) launch() *exec.Launch {
	return &exec.Launch{Prog: in.prog, GridDim: in.grid, BlockDim: in.block, Global: make([]byte, 4*in.grid*in.block)}
}

// streams is the stream-launches workload: many small launches through
// one stream per client, one launch outstanding per stream.
type streams struct {
	dev     *device.Device
	streams []*device.Stream
	inputs  []*streamInput
}

func setupStreams(ctx context.Context, env *setupEnv) (bench, error) {
	w := &streams{}
	for i, spec := range launchSpecs(env.seed, streamLaunchCount) {
		name := fmt.Sprintf("progen%d", i)
		id := env.tr.begin("progen.generate", env.span, 0)
		p, err := progen.New(spec.progenSeed).Program(name, spec.regions)
		env.tr.end(id)
		if err != nil {
			return nil, err
		}
		id = env.tr.begin("cfg.insert_syncs", env.span, 0)
		tf, err := cfg.InsertSyncs(p)
		env.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		in := &streamInput{prog: tf, grid: spec.grid, block: spec.block}
		l := in.launch()
		l.Prog = p
		id = env.tr.begin("exec.reference", env.span, 0)
		_, err = exec.RunReference(l, 32)
		env.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		in.want = l.Global
		w.inputs = append(w.inputs, in)
	}
	d, err := device.New(device.WithArch(sm.ArchSBISWI), device.WithWorkers(env.par))
	if err != nil {
		return nil, err
	}
	w.dev = d
	for range env.par {
		w.streams = append(w.streams, d.NewStream())
	}
	// The warm-up launches every input once; its statistics are the
	// reference the timed launches must repeat.
	id := env.tr.begin("warmup", env.span, 0)
	defer env.tr.end(id)
	for _, in := range w.inputs {
		l := in.launch()
		res, err := w.streams[0].Launch(ctx, l).Wait()
		if err != nil {
			return nil, err
		}
		env.check(checkImage(in.prog.Name, l.Global, in.want))
		in.ref = res.Stats
	}
	return w, nil
}

func (w *streams) op(ctx context.Context, client int, tr *tracer, parent, opID int64) (opResult, error) {
	in := w.inputs[int(opID-1)%len(w.inputs)]
	l := in.launch()
	id := tr.begin("device.Stream.Launch", parent, opID)
	res, err := w.streams[client].Launch(ctx, l).Wait()
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	if err := checkImage(in.prog.Name, l.Global, in.want); err != nil {
		return opResult{}, err
	}
	if res.Stats != in.ref {
		return opResult{}, fmt.Errorf("%s: stats differ from the warm-up launch", in.prog.Name)
	}
	return resultOf(res), nil
}

// checkImage compares a launch's final memory with its oracle.
func checkImage(name string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: final memory differs from the oracle", name)
	}
	return nil
}

func (w *streams) pass() int { return len(w.inputs) }

func (w *streams) finish(context.Context) (uint64, map[cell]sm.Stats, error) {
	hs := make([]uint64, len(w.inputs))
	for i, in := range w.inputs {
		hs[i] = fingerprint.Hash(in.ref)
	}
	return fingerprint.Hash(hs), nil, nil
}

// directRunMS times sm.Run on each input, reps times over, outside the
// device: the simulation cost a stream launch adds its overhead to.
func (w *streams) directRunMS(tr *tracer, reps int) ([]float64, error) {
	cfg := w.dev.Config()
	var out []float64
	for range reps {
		for _, in := range w.inputs {
			l := in.launch()
			id := tr.begin("sm.Run", 0, 0)
			t0 := time.Now()
			_, err := sm.Run(cfg, l)
			out = append(out, float64(time.Since(t0))/1e6)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"clperf/internal/cl"
	"clperf/internal/ir"
	"clperf/internal/kernels"
)

// hostioDigest is what one host program must reproduce: its output
// buffers (as a hash of their float64 bits) and every command's
// simulated event duration.
type hostioDigest struct {
	Outputs string        `json:"outputs_hash"`
	Events  []hostioEvent `json:"events"`
}

type hostioEvent struct {
	Command string  `json:"cmd"`
	NS      float64 `json:"ns"`
}

// hostioParam is one kernel buffer parameter of a host program.
type hostioParam struct {
	name          string
	elem          ir.Type
	n             int
	flags         cl.MemFlags
	input, output bool
	data          []float64 // the input's contents, built in set-up
}

// hostioWorkload runs functional host programs through the cl runtime:
// Fig 7's apps at all their paper configurations, once through the copy
// API and once through the map API. An op is one program: create
// buffers with role flags, write the inputs, launch on a functional
// queue, read the outputs back. Outputs are validated by App.Check and
// compared with the seed outside the timed region.
func hostioWorkload() *workload {
	return &workload{
		name:     "hostio",
		deadline: 60 * time.Second,
		setup: func(tr *tracer) ([]op, error) {
			var ops []op
			for _, app := range []*kernels.App{kernels.Square(), kernels.VectorAdd(), kernels.BlackScholes()} {
				reads, writes := ir.BufferAccess(app.Kernel)
				for ci, nd := range app.Configs {
					var args *ir.Args
					_ = tr.call("kernels.make", func() error {
						args = app.Make(nd)
						return nil
					})
					params := hostioParams(app.Kernel, args, reads, writes)
					scalars := args.Scalars
					for _, mapped := range []bool{false, true} {
						api := "copy"
						if mapped {
							api = "map"
						}
						name := fmt.Sprintf("%s/%d/%s", app.Name, ci, api)
						ops = append(ops, op{name: name, run: func(tr *tracer) (func() (any, error), error) {
							outs, events, err := hostProgram(tr, app.Kernel, nd, params, scalars, mapped)
							if err != nil {
								return nil, err
							}
							return func() (any, error) {
								if err := checkElementwise(app, nd, params, scalars, outs); err != nil {
									return nil, fmt.Errorf("validation: %w", err)
								}
								return hostioDigest{Outputs: hashOutputs(outs), Events: events}, nil
							}, nil
						}})
					}
				}
			}
			return ops, nil
		},
		refs: jsonRefs("refs/hostio.json"),
	}
}

// hostioParams derives each buffer's role from the kernel's static
// accesses and keeps only the inputs' contents.
func hostioParams(k *ir.Kernel, args *ir.Args, reads, writes []string) []hostioParam {
	in := func(names []string, n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	var params []hostioParam
	for _, name := range k.BufferNames() {
		b := args.Buffers[name]
		p := hostioParam{name: name, elem: b.Elem, n: b.Len(), input: in(reads, name), output: in(writes, name)}
		switch {
		case p.input && !p.output:
			p.flags = cl.MemReadOnly
		case p.output && !p.input:
			p.flags = cl.MemWriteOnly
		default:
			p.flags = cl.MemReadWrite
		}
		if p.input {
			p.data = b.Data
		}
		params = append(params, p)
	}
	return params
}

// hostProgram is one host program on a fresh context and functional
// queue. It returns each output parameter's read-back contents (nil for
// inputs) and the queue's events.
func hostProgram(tr *tracer, kern *ir.Kernel, nd ir.NDRange, params []hostioParam, scalars map[string]float64, mapped bool) ([][]float64, []hostioEvent, error) {
	ctx := cl.NewContext(cl.CPUDevice())
	q := cl.NewQueue(ctx)
	k, err := ctx.CreateKernel(kern)
	if err != nil {
		return nil, nil, err
	}
	bufs := make([]*cl.Buffer, len(params))
	err = tr.call("cl.create", func() error {
		for i, p := range params {
			b, err := ctx.CreateBuffer(p.flags, p.elem, p.n)
			if err != nil {
				return err
			}
			if err := k.SetBufferArg(p.name, b); err != nil {
				return err
			}
			bufs[i] = b
		}
		for name, v := range scalars {
			if err := k.SetScalarArg(name, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var moved int
	err = tr.call("cl.write", func() error {
		for i, p := range params {
			if !p.input {
				continue
			}
			moved += len(p.data)
			if !mapped {
				if _, err := q.EnqueueWriteBuffer(bufs[i], p.data); err != nil {
					return err
				}
				continue
			}
			view, _, err := q.EnqueueMapBuffer(bufs[i], cl.MapWrite)
			if err != nil {
				return err
			}
			copy(view, p.data)
			if _, err := q.EnqueueUnmapBuffer(bufs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.call("cl.launch", func() error {
		_, err := q.EnqueueNDRangeKernel(k, nd)
		return err
	}); err != nil {
		return nil, nil, err
	}
	outs := make([][]float64, len(params))
	err = tr.call("cl.read", func() error {
		for i, p := range params {
			if !p.output {
				continue
			}
			dst := make([]float64, p.n)
			moved += len(dst)
			outs[i] = dst
			if !mapped {
				if _, err := q.EnqueueReadBuffer(bufs[i], dst); err != nil {
					return err
				}
				continue
			}
			view, _, err := q.EnqueueMapBuffer(bufs[i], cl.MapRead)
			if err != nil {
				return err
			}
			copy(dst, view)
			if _, err := q.EnqueueUnmapBuffer(bufs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	tr.count("cl.moved_bytes", float64(moved*8))
	var events []hostioEvent
	for _, ev := range q.Events() {
		events = append(events, hostioEvent{Command: ev.Command, NS: float64(ev.Duration())})
	}
	return outs, events, nil
}

// checkElementwise validates a program's outputs with app.Check. The
// three apps are elementwise (item i reads and writes only element i),
// so it checks GOMAXPROCS contiguous slices of the buffers concurrently.
func checkElementwise(app *kernels.App, nd ir.NDRange, params []hostioParam, scalars map[string]float64, outs [][]float64) error {
	n := params[0].n
	parts := runtime.GOMAXPROCS(0)
	for _, p := range params {
		if p.n != n {
			parts = 1 // not elementwise after all: check whole buffers
		}
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for c := 0; c < parts; c++ {
		lo, hi := n*c/parts, n*(c+1)/parts
		args := ir.NewArgs()
		for k, v := range scalars {
			args.SetScalar(k, v)
		}
		for i, p := range params {
			data := p.data
			if outs[i] != nil {
				data = outs[i]
			}
			args.Bind(p.name, &ir.Buffer{Name: p.name, Elem: p.elem, Data: data[lo:hi]})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = app.Check(args, nd)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hashOutputs folds the output buffers' float64 bit patterns into one
// 64-bit hash (a multiply-xorshift mix, cheap enough for the ~0.9 GiB of
// outputs a pass reads back).
func hashOutputs(outs [][]float64) string {
	h := uint64(0x9e3779b97f4a7c15)
	for i, o := range outs {
		h ^= uint64(i+1) * 0xbf58476d1ce4e5b9
		for _, v := range o {
			h = (h ^ math.Float64bits(v)) * 0x94d049bb133111eb
			h ^= h >> 31
		}
	}
	return fmt.Sprintf("%016x", h)
}

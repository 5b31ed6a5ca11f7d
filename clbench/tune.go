package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"clperf/internal/arch"
	"clperf/internal/core"
	"clperf/internal/ir"
	"clperf/internal/kernels"
)

// tuneDigest is the outcome of one advisor session that must not change.
type tuneDigest struct {
	ND       string  `json:"nd"`
	Coarsen  int     `json:"coarsen"`
	Time     float64 `json:"time_ns"`
	Baseline float64 `json:"baseline_ns"`
	Analyze  string  `json:"analyze_fnv"` // FNV-64a of the rendered analysis
}

// tuneWorkload runs advisor sessions as `advisor -tune` does, for every
// registered app at each paper configuration on every device of the
// matrix zoo. An op is one session: NewAdvisor, Analyze, Tune, and Tune
// again (the revisit, all memo hits). Argument buffers are built once
// in set-up.
func tuneWorkload() *workload {
	return &workload{
		name:     "tune",
		deadline: 15 * time.Second,
		setup: func(tr *tracer) ([]op, error) {
			type config struct {
				app  *kernels.App
				idx  int
				nd   ir.NDRange
				args *ir.Args
			}
			var configs []config
			for _, app := range kernels.Registry() {
				for i, nd := range app.Configs {
					c := config{app: app, idx: i, nd: nd}
					_ = tr.call("kernels.make", func() error {
						c.args = app.Make(nd)
						return nil
					})
					configs = append(configs, c)
				}
			}
			var ops []op
			for _, c := range configs {
				for _, a := range arch.MatrixZoo() {
					name := fmt.Sprintf("%s/%d/%s", c.app.Name, c.idx, a.Name)
					ops = append(ops, op{name: name, run: func(tr *tracer) (func() (any, error), error) {
						k := c.app.Kernel
						ad := core.NewAdvisor(a)
						var rep *core.Report
						var cold, warm *core.TuneResult
						err := tr.call("core.analyze", func() error {
							var err error
							rep, err = ad.Analyze(k, c.args, c.nd)
							return err
						})
						if err == nil {
							err = tr.call("core.tune_cold", func() error {
								var err error
								cold, err = ad.Tune(k, c.args, c.nd)
								return err
							})
						}
						if err == nil {
							err = tr.call("core.tune_warm", func() error {
								var err error
								warm, err = ad.Tune(k, c.args, c.nd)
								return err
							})
						}
						if err != nil {
							return nil, err
						}
						st := ad.Eval.Stats()
						tr.count("search.estimates", float64(st.Misses))
						tr.count("search.hits", float64(st.Hits))
						return func() (any, error) {
							d := digestTune(cold, rep)
							if w := digestTune(warm, rep); w != d {
								return nil, fmt.Errorf("revisit tuned to %+v, first visit to %+v", w, d)
							}
							return d, nil
						}, nil
					}})
				}
			}
			return ops, nil
		},
		refs: jsonRefs("refs/tune.json"),
	}
}

func digestTune(t *core.TuneResult, rep *core.Report) tuneDigest {
	h := fnv.New64a()
	h.Write([]byte(rep.Render()))
	return tuneDigest{
		ND:       t.ND.String(),
		Coarsen:  t.Coarsen,
		Time:     float64(t.Time),
		Baseline: float64(t.Baseline),
		Analyze:  fmt.Sprintf("%016x", h.Sum64()),
	}
}

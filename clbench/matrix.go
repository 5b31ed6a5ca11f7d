package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"clperf/internal/arch"
	"clperf/internal/core"
	"clperf/internal/cpu"
	"clperf/internal/gpu"
	"clperf/internal/harness"
	"clperf/internal/ir"
	"clperf/internal/kernels"
	"clperf/internal/obs"
	"clperf/internal/replay"
	"clperf/internal/search"
)

// matrixRow is one row of the portability matrix: the kernels and
// reference geometries of `oclbench -e matrix`, in its order.
type matrixRow struct {
	app *kernels.App
	nd  ir.NDRange
}

func matrixRows() []matrixRow {
	return []matrixRow{
		{kernels.Square(), ir.Range1D(1<<18, 256)},
		{kernels.VectorAdd(), ir.Range1D(1<<18, 256)},
		{kernels.MatrixMul(), ir.Range2D(160, 320, 16, 16)},
		{kernels.MatrixMulNaive(), ir.Range2D(160, 320, 16, 16)},
		{kernels.BlackScholes(), ir.Range2D(640, 640, 16, 16)},
		{kernels.Convolution(), ir.Range2D(1024, 256, 64, 1)},
		{kernels.Stencil5(), ir.Range2D(512, 512, 16, 16)},
		{kernels.Stencil9(), ir.Range2D(512, 512, 16, 16)},
	}
}

// matrixWorkload prices the portability matrix row by row, making the
// public calls experiments.Matrix makes in its order. An op is one row;
// its tuned-throughput and replayed-runtime cells must equal the seed's
// `oclbench -e matrix` tables.
func matrixWorkload() *workload {
	return &workload{
		name:     "matrix",
		deadline: 6 * time.Second,
		setup: func(tr *tracer) ([]op, error) {
			archs := arch.MatrixZoo()
			rec := func() *obs.Recorder { return nil }
			replayCache := search.NewCache(0)
			ads := make([]*core.Advisor, len(archs))
			devs := make([]*cpu.Device, len(archs))
			for j, a := range archs {
				ad := core.NewAdvisor(a)
				ad.Eval.Workers = 1
				ads[j], devs[j] = ad, ad.Dev
			}
			gpuDev := gpu.New(arch.GTX580())
			var ops []op
			for _, row := range matrixRows() {
				ops = append(ops, op{name: row.app.Name, run: func(tr *tracer) (func() (any, error), error) {
					k := row.app.Kernel
					var args *ir.Args
					_ = tr.call("kernels.make", func() error {
						args = row.app.Make(row.nd)
						return nil
					})
					tuned := []any{row.app.Name}
					eff := make([]float64, len(ads))
					err := tr.call("core.best_workgroup", func() error {
						for j, ad := range ads {
							best, _, err := ad.BestWorkgroup(k, args, row.nd)
							if err != nil {
								return fmt.Errorf("tune on %s: %w", archs[j].Name, err)
							}
							res, err := ad.Eval.Estimate(k, args, best)
							if err != nil {
								return fmt.Errorf("estimate on %s: %w", archs[j].Name, err)
							}
							gf := res.Throughput().GFlops()
							eff[j] = gf / archs[j].PeakFlops().GFlops()
							tuned = append(tuned, gf)
						}
						return nil
					})
					if err != nil {
						return nil, err
					}
					tuned = append(tuned, harmonicEff(eff))

					var results []*cpu.PinnedResult
					var trace *replay.Trace
					err = tr.call("replay.pinned", func() error {
						var err error
						results, trace, err = replay.PinnedAll(devs, k, args, row.nd, replay.Options{Cache: replayCache, Rec: rec})
						return err
					})
					if err != nil {
						return nil, err
					}
					if trace != nil {
						tr.count("replay.trace_bytes", float64(trace.Bytes()))
					} else {
						tr.count("replay.fallbacks", 1)
					}
					times := []any{row.app.Name}
					for _, r := range results {
						times = append(times, r.Time)
					}
					var g *gpu.Result
					err = tr.call("gpu.estimate", func() error {
						var err error
						if trace != nil {
							g, err = replay.EstimateOn(trace, gpuDev.Fingerprint(), gpuDev.Estimate, replayCache, rec)
						} else {
							g, err = gpuDev.Estimate(k, args, row.nd)
						}
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("on GTX580: %w", err)
					}
					times = append(times, g.Time)
					return func() (any, error) {
						return map[string][]string{"tuned": cells(tuned), "times": cells(times)}, nil
					}, nil
				}})
			}
			return ops, nil
		},
		refs: matrixRefs,
	}
}

// harmonicEff is the matrix's portability score: the harmonic mean of
// the per-device flop efficiencies, 0 when any device reaches none.
func harmonicEff(eff []float64) float64 {
	sum := 0.0
	for _, v := range eff {
		if v <= 0 {
			return 0
		}
		sum += 1 / v
	}
	if sum == 0 {
		return 0
	}
	return float64(len(eff)) / sum
}

// cells renders a row's cells as the matrix tables print them.
func cells(row []any) []string {
	t := &harness.Table{}
	t.AddRow(row...)
	return t.Rows[0]
}

// matrixRefs reads each row's cells from the seed's rendered tables.
func matrixRefs() (map[string]json.RawMessage, error) {
	b, err := refFS.ReadFile("refs/matrix.txt")
	if err != nil {
		return nil, err
	}
	rows := map[string]map[string][]string{}
	table := ""
	lines := strings.Split(string(b), "\n")
	for i := 0; i < len(lines); i++ {
		switch {
		case strings.HasPrefix(lines[i], "== Tuned"):
			table, i = "tuned", i+2 // skip the header and rule lines
		case strings.HasPrefix(lines[i], "== Replayed"):
			table, i = "times", i+2
		case lines[i] == "":
			table = ""
		case table != "":
			f := strings.Fields(lines[i])
			if rows[f[0]] == nil {
				rows[f[0]] = map[string][]string{}
			}
			rows[f[0]][table] = f
		}
	}
	refs := map[string]json.RawMessage{}
	for name, r := range rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("refs/matrix.txt: row %s is not in both tables", name)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		refs[name] = raw
	}
	return refs, nil
}

package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"clperf/internal/experiments"
	"clperf/internal/harness"
)

// refFS holds every op's reference output, recorded at the seed:
// refs/suite.txt is results.txt, refs/matrix.txt the output of
// `oclbench -e matrix`, and refs/tune.json and refs/hostio.json the
// digests `clbench -record` wrote.
//
//go:embed refs
var refFS embed.FS

// workload is one set of ops the benchmark runs. setup builds what a
// fresh process builds before its first op and returns the pass's ops
// in canonical order; refs returns each op's expected digest by name.
type workload struct {
	name string
	// deadline bounds each op: an op still running after it fails.
	deadline time.Duration
	setup    func(tr *tracer) ([]op, error)
	refs     func() (map[string]json.RawMessage, error)
}

// workloads returns every workload in report order.
func workloads() []*workload {
	return []*workload{suiteWorkload(), matrixWorkload(), tuneWorkload(), hostioWorkload()}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// jsonRefs loads a reference file recorded by -record.
func jsonRefs(file string) func() (map[string]json.RawMessage, error) {
	return func() (map[string]json.RawMessage, error) {
		b, err := refFS.ReadFile(file)
		if err != nil {
			return nil, err
		}
		refs := map[string]json.RawMessage{}
		if err := json.Unmarshal(b, &refs); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		return refs, nil
	}
}

// suiteWorkload runs the paper's 22 artifacts as `oclbench -e all` does:
// through harness.Runner on one worker with observability off. An op is
// one experiment; its rendered report must equal its section of
// results.txt byte for byte.
func suiteWorkload() *workload {
	return &workload{
		name:     "suite",
		deadline: 60 * time.Second,
		setup: func(tr *tracer) ([]op, error) {
			runner := harness.NewRunner(harness.RunnerOptions{Parallel: 1})
			var ops []op
			for _, e := range experiments.All() {
				ops = append(ops, op{name: e.ID, run: func(tr *tracer) (func() (any, error), error) {
					var rep *harness.Report
					err := tr.call("experiments."+e.ID, func() error {
						r := runner.Run(context.Background(), []harness.Experiment{e}).Results[0]
						rep = r.Report
						return r.Err
					})
					if err != nil {
						return nil, err
					}
					var out bytes.Buffer
					_ = tr.call("harness.render", func() error {
						rep.Render(&out)
						return nil
					})
					return func() (any, error) { return out.String(), nil }, nil
				}})
			}
			return ops, nil
		},
		refs: suiteRefs,
	}
}

// suiteRefs splits results.txt into one section per experiment id.
func suiteRefs() (map[string]json.RawMessage, error) {
	b, err := refFS.ReadFile("refs/suite.txt")
	if err != nil {
		return nil, err
	}
	refs := map[string]json.RawMessage{}
	text := string(b)
	for len(text) > 0 {
		if !strings.HasPrefix(text, "### ") {
			return nil, fmt.Errorf("refs/suite.txt: section does not start with ###: %q", clip(text))
		}
		end := strings.Index(text, "\n### ")
		if end < 0 {
			end = len(text)
		} else {
			end++
		}
		section := text[:end]
		id, _, _ := strings.Cut(strings.TrimPrefix(section, "### "), " ")
		raw, err := json.Marshal(section)
		if err != nil {
			return nil, err
		}
		refs[id] = raw
		text = text[end:]
	}
	return refs, nil
}

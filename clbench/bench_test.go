package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"clperf/internal/obs"
	"clperf/internal/units"
)

// selfTestEnv makes the test binary act as a clbench worker process for
// the synthetic workload, so the tests drive the real parent/worker
// protocol.
const selfTestEnv = "CLBENCH_SELFTEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(selfTestEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, func(string) (*workload, error) {
			return faultyWorkload(), nil
		}))
	}
	os.Exit(m.Run())
}

// faultyWorkload has two good ops and one of each failure: an error, a
// panic, a mismatching output and a call blocked past its deadline.
func faultyWorkload() *workload {
	digest := func(v string) func(*tracer) (func() (any, error), error) {
		return func(*tracer) (func() (any, error), error) {
			return func() (any, error) { return v, nil }, nil
		}
	}
	return &workload{
		name:     "faulty",
		deadline: 300 * time.Millisecond,
		setup: func(*tracer) ([]op, error) {
			return []op{
				{name: "ok1", run: digest("a")},
				{name: "ok2", run: digest("a")},
				{name: "mismatch", run: digest("b")},
				{name: "error", run: func(*tracer) (func() (any, error), error) {
					return nil, errors.New("boom")
				}},
				{name: "panic", run: func(*tracer) (func() (any, error), error) {
					panic("bad state")
				}},
				{name: "blocked", run: func(*tracer) (func() (any, error), error) {
					select {} // never returns: only the worker's exit ends it
				}},
			}, nil
		},
		refs: func() (map[string]json.RawMessage, error) {
			refs := map[string]json.RawMessage{}
			for _, n := range []string{"ok1", "ok2", "mismatch", "error", "panic", "blocked"} {
				refs[n] = json.RawMessage(`"a"`)
			}
			return refs, nil
		},
	}
}

func TestEachFailureCountsOnce(t *testing.T) {
	t.Setenv(selfTestEnv, "1")
	b := &bench{exe: os.Args[0], seed: 7, stdout: io.Discard, stderr: io.Discard, start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pr, err := b.runPass(ctx, faultyWorkload(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	fails := map[string]string{}
	seen := map[string]int{}
	for _, r := range pr.results {
		seen[r.Name]++
		if r.failed() {
			fails[r.Name] = r.Fail
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("op %s ran %d times, want once", name, n)
		}
	}
	want := map[string]string{"error": failError, "panic": failPanic, "mismatch": failMismatch, "blocked": failDeadline}
	if len(pr.results) != 6 || len(fails) != len(want) {
		t.Fatalf("got %d results with failures %v, want 6 with %v", len(pr.results), fails, want)
	}
	for name, kind := range want {
		if fails[name] != kind {
			t.Errorf("op %s failed as %q, want %q", name, fails[name], kind)
		}
	}
	// The late op ends its worker unless it was the pass's last op; the
	// rest of the pass then runs in a fresh process.
	order := passOrder(6, 7, 0)
	wantProcs := 2
	if order[5] == 5 {
		wantProcs = 1
	}
	if len(pr.procs) != wantProcs {
		t.Errorf("pass used %d workers, want %d", len(pr.procs), wantProcs)
	}
	var out output
	out.tally([]*passRun{pr})
	if out.Attempted != 6 || out.Failed != 4 || out.Correct {
		t.Errorf("tally = %d attempted, %d failed, correct %v; want 6, 4, false", out.Attempted, out.Failed, out.Correct)
	}
	e := endToEnd([]*passRun{pr})
	if e.wall <= 0 || e.wall >= faultyWorkload().deadline {
		t.Errorf("wall = %v: failed ops must not count towards it", e.wall)
	}
}

func TestRunOpDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := op{name: "stuck", run: func(*tracer) (func() (any, error), error) {
		<-release
		return nil, nil
	}}
	res, late := runOp(o, newTracer(false), 50*time.Millisecond, func(string, any) error { return nil })
	if !late || res.Fail != failDeadline {
		t.Fatalf("runOp = %+v, late %v; want a deadline failure", res, late)
	}
}

func TestRunOpStall(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	o := op{name: "parked", run: func(*tracer) (func() (any, error), error) {
		<-release
		return nil, nil
	}}
	t0 := time.Now()
	res, late := runOp(o, newTracer(false), time.Minute, func(string, any) error { return nil })
	if !late || res.Fail != failStall {
		t.Fatalf("runOp = %+v, late %v; want a stall failure", res, late)
	}
	if d := time.Since(t0); d > stallWindow+time.Second {
		t.Errorf("stall reported after %v, want about %v", d, stallWindow)
	}
}

func TestTracerDropsUnfinishedOps(t *testing.T) {
	tr := newTracer(true)
	tr.begin("done")
	_ = tr.call("layer", func() error { return nil })
	tr.end()
	tr.begin("late") // never ended, as an op past its deadline
	_ = tr.call("layer", func() error { return nil })
	var names []string
	for _, s := range tr.spans() {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "done,layer" {
		t.Errorf("spans = %s, want done,layer", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{ID: 0, Parent: obs.NoParent, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // overhangs the root
		{ID: 4, Parent: 1, Name: "a2", Start: 15, End: 25}, // grandchild
		{ID: 5, Parent: obs.NoParent, Name: setupSpan, Start: 200, End: 260},
		{ID: 6, Parent: 5, Name: "a", Start: 210, End: 250}, // same layer, in set-up
	}
	want := map[int]units.Duration{0: 50, 1: 10, 2: 30, 3: 30, 4: 10, 5: 20, 6: 40}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(span %d) = %v, want %v", id, got[id], w)
		}
	}
	layers, opTime := passLayers(spans)
	if opTime != 100 {
		t.Errorf("op time = %v, want 100", opTime)
	}
	for name, w := range map[string]units.Duration{"op": 50, "a": 10, "b": 30, "c": 30, "a2": 10, setupSpan: 20, setupSpan + "/a": 40} {
		if l := layers[name]; l == nil || l.Self != w {
			t.Errorf("layer %s = %+v, want self %v", name, l, w)
		}
	}
}

// TestShortPassesMatchReferences runs a few ops of every workload, each
// against its recorded reference. A matrix row that hits the known
// traced-parallel deadlock (ROADMAP open item 1) fails here as a
// deadline.
func TestShortPassesMatchReferences(t *testing.T) {
	short := map[string][]string{
		"suite":  {"table1", "table3", "fig2", "fig8"},
		"matrix": {"Square"},
		"tune":   {"Square/0/Intel(R) Xeon(R) CPU E5645", "Matrixmul/1/Intel(R) Xeon(R) CPU E5645"},
		"hostio": {"Square/0/copy", "Square/0/map", "Vectoraddition/0/map"},
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			ops, err := w.setup(newTracer(true))
			if err != nil {
				t.Fatal(err)
			}
			refs, err := w.refs()
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) != len(ops) {
				t.Errorf("%d references for %d ops", len(refs), len(ops))
			}
			byName := map[string]op{}
			for _, o := range ops {
				byName[o.name] = o
			}
			for _, name := range short[w.name] {
				o, ok := byName[name]
				if !ok {
					t.Fatalf("no op %q; have e.g. %q", name, ops[0].name)
				}
				res, _ := runOp(o, newTracer(true), w.deadline, refChecker(refs))
				if res.failed() {
					t.Errorf("op %s: %s: %s", name, res.Fail, res.Err)
				}
			}
		})
	}
}

func TestSuiteRefsCoverResults(t *testing.T) {
	refs, err := suiteRefs()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := refFS.ReadFile("refs/suite.txt")
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for id, raw := range refs {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(s, "### "+id+" ") {
			t.Errorf("section %s starts %q", id, clip(s))
		}
		total += len(s)
	}
	if len(refs) != 22 || total != len(whole) {
		t.Errorf("%d sections of %d bytes, want 22 covering all %d", len(refs), total, len(whole))
	}
}

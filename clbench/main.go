// Command clbench is clperf's benchmark. It runs one workload of
// clperf's public layers from a single process as a closed loop (ops
// back to back), times every op from outside, checks every op's output
// against a reference recorded at the seed, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics, as the last line of
// its output:
//
//	clbench -workload suite -seed 1 -seconds 35 -trace 0
//	clbench -workload matrix -trace 1   # layer x workload table
//
// Each pass of a workload's ops runs in a fresh worker process (host
// caches start cold, as in a fresh oclbench or advisor process). An op
// that overruns its deadline fails, is not retried, and ends its
// worker; the pass resumes at the next op in a new worker.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"clperf/internal/harness"
	"clperf/internal/obs"
	"clperf/internal/units"
)

// defaultSeed is the workload seed the recorded baseline used; re-check
// a claim on another seed.
const defaultSeed = 1

const (
	// minPasses is the fewest passes an untraced run makes.
	minPasses = 3
	// runCap bounds a whole run: no worker outlives it.
	runCap = 165 * time.Second
	// silence is how long past its op deadline a worker may go without
	// reporting before the parent kills it.
	silence = 20 * time.Second
	// setupCap bounds a worker's set-up.
	setupCap = 60 * time.Second
	mib      = 1 << 20
)

// traceDir receives the traced run's Chrome trace and metrics snapshot,
// under the build directory run.sh uses.
const traceDir = ".bench_build/clbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, workloadByName))
}

// run is the command: find resolves a workload name, for the parent and
// for the worker processes it spawns.
func run(argv []string, stdout, stderr io.Writer, find func(string) (*workload, error)) int {
	fs := flag.NewFlagSet("clbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload to run: suite, matrix, tune or hostio")
		seed    = fs.Int64("seed", defaultSeed, "workload seed: permutes the op order of every pass")
		seconds = fs.Int("seconds", 35, "measure for about this long (at least 3 passes)")
		traced  = fs.Int("trace", 0, "1: traced run of every workload, printing the per-layer metrics")
		record  = fs.String("record", "", "write the tune and hostio references into this directory and exit")
		worker  = fs.Bool("worker", false, "run one pass as a worker process (used by clbench itself)")
		pass    = fs.Int("pass", 0, "worker: pass number")
		skip    = fs.Int("skip", 0, "worker: ops of the pass already run")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordRefs(*record); err != nil {
			fmt.Fprintf(stderr, "clbench: -record: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := find(*wname)
	if err != nil {
		fmt.Fprintf(stderr, "clbench: %v\n", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "clbench: -trace must be 0 or 1")
		return 2
	}
	if *worker {
		if err := runWorker(w, *seed, *pass, *skip, *traced == 1, stdout); err != nil {
			fmt.Fprintf(stderr, "clbench worker: %v\n", err)
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "clbench: %v\n", err)
		return 1
	}
	b := &bench{exe: exe, seed: *seed, stdout: stdout, stderr: stderr, start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), runCap)
	defer cancel()
	var out *output
	if *traced == 1 {
		out, err = b.tracedRun(ctx, w)
	} else {
		out, err = b.untracedRun(ctx, w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "clbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "clbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs passes in worker processes.
type bench struct {
	exe            string
	seed           int64
	stdout, stderr io.Writer
	start          time.Time
}

// proc is one worker process's share of a pass.
type proc struct {
	ready   time.Duration // spawn to "ready": process start plus set-up
	ops     int
	results []result
	late    bool
	t0      int64
	spans   []obs.Span
}

// passRun is one pass of a workload, over one worker process or, after
// a late op, several.
type passRun struct {
	workload string
	pass     int
	setup    time.Duration // of the pass's first worker
	results  []result
	procs    []*proc
}

// spawn runs a worker process for one pass from op skip on.
func (b *bench) spawn(ctx context.Context, w *workload, pass, skip int, traced bool) (*proc, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, b.exe, "-worker", "-workload", w.name,
		"-seed", strconv.FormatInt(b.seed, 10), "-pass", strconv.Itoa(pass),
		"-skip", strconv.Itoa(skip), "-trace", tr)
	cmd.Stderr = b.stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	// The worker enforces its own op deadlines; this watchdog kills one
	// that stops reporting altogether.
	var killed atomic.Bool
	watchdog := time.AfterFunc(setupCap, func() {
		killed.Store(true)
		_ = cmd.Process.Kill()
	})
	p := &proc{}
	var setupErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 512<<20)
	for sc.Scan() {
		watchdog.Reset(w.deadline + silence)
		var m message
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			fmt.Fprintf(b.stderr, "%s worker: %s\n", w.name, sc.Bytes()) // not protocol: pass it on
			continue
		}
		switch m.Ev {
		case "ready":
			p.ready, p.ops = time.Since(start), m.Ops
		case "op":
			p.results = append(p.results, *m.Res)
		case "end":
			p.late, p.t0, p.spans = m.Late, m.T0, m.Spans
			if m.Err != "" {
				setupErr = errors.New(m.Err)
			}
		}
	}
	watchdog.Stop()
	werr := cmd.Wait()
	switch {
	case setupErr != nil:
		return nil, fmt.Errorf("%s worker: %w", w.name, setupErr)
	case p.ready == 0:
		return nil, fmt.Errorf("%s worker failed before its first op: %v", w.name, werr)
	case killed.Load():
		p.results = append(p.results, result{Name: "(op in flight)", NS: (w.deadline + silence).Nanoseconds(),
			Fail: failDeadline, Err: "worker stopped reporting; killed"})
	case werr != nil && !p.late:
		p.results = append(p.results, result{Name: "(op in flight)", Fail: failError, Err: fmt.Sprintf("worker crashed: %v", werr)})
	}
	return p, nil
}

// runPass runs one pass of w. When a worker ends early (an op overran
// its deadline, or the worker died) the pass resumes in a new worker at
// the next op; the lost op counts as one failure and is not retried.
func (b *bench) runPass(ctx context.Context, w *workload, pass int, traced bool) (*passRun, error) {
	pr := &passRun{workload: w.name, pass: pass}
	for {
		p, err := b.spawn(ctx, w, pass, len(pr.results), traced)
		if err != nil {
			return nil, err
		}
		if len(pr.procs) == 0 {
			pr.setup = p.ready
		}
		pr.procs = append(pr.procs, p)
		pr.results = append(pr.results, p.results...)
		if len(pr.results) >= p.ops || ctx.Err() != nil {
			return pr, nil
		}
		if len(p.results) == 0 {
			return nil, fmt.Errorf("%s worker ran no op of pass %d", w.name, pass)
		}
	}
}

// untracedRun measures the end-to-end metrics of w: passes run back to
// back while another one is expected to end within the time budget.
func (b *bench) untracedRun(ctx context.Context, w *workload, budget time.Duration) (*output, error) {
	var passes []*passRun
	var times []float64
	for pass := 0; ; pass++ {
		t0 := time.Now()
		pr, err := b.runPass(ctx, w, pass, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		times = append(times, float64(time.Since(t0)))
		fmt.Fprintf(b.stdout, "pass %d: %s\n", pass, passLine(pr))
		next := time.Since(b.start) + time.Duration(median(times))
		if ctx.Err() != nil || (len(passes) >= minPasses && next > budget) {
			break
		}
	}
	e := endToEnd(passes)
	out := &output{Metrics: map[string]metric{
		"wall_s":      {e.wall.Seconds(), "s"},
		"setup_s":     {e.setup.Seconds(), "s"},
		"alloc_mb":    {e.alloc / mib, "MiB"},
		"peak_rss_mb": {float64(e.rssKiB) / 1024, "MiB"},
	}}
	out.tally(passes)
	fmt.Fprintf(b.stdout, "workload %s, seed %d, %d passes in %.1fs (one worker process per pass)\n",
		w.name, b.seed, len(passes), time.Since(b.start).Seconds())
	fmt.Fprintf(b.stdout, "wall_s       %10.4f s    sum over ops of each op's median host time\n", e.wall.Seconds())
	fmt.Fprintf(b.stdout, "setup_s      %10.4f s    median, worker spawn to end of set-up\n", e.setup.Seconds())
	fmt.Fprintf(b.stdout, "alloc_mb     %10.1f MiB  sum over ops of each op's median heap allocation\n", e.alloc/mib)
	fmt.Fprintf(b.stdout, "peak_rss_mb  %10.1f MiB  peak resident set of the run, over its ops\n", float64(e.rssKiB)/1024)
	fmt.Fprintf(b.stdout, "ops          %10d\nops_failed   %10d\n", out.Attempted, out.Failed)
	printOps(b.stdout, passes)
	printFailures(b.stdout, passes)
	if e.wall == 0 {
		return nil, errors.New("no op completed")
	}
	return out, nil
}

// tally counts the ops of passes into out.
func (out *output) tally(passes []*passRun) {
	mismatches, ok := 0, 0
	for _, pr := range passes {
		for _, r := range pr.results {
			out.Attempted++
			switch {
			case r.Fail == failMismatch:
				mismatches++
				out.Failed++
			case r.failed():
				out.Failed++
			default:
				ok++
			}
		}
	}
	out.Correct = mismatches == 0 && ok > 0
}

func passLine(pr *passRun) string {
	var ns int64
	failed := 0
	for _, r := range pr.results {
		ns += r.NS
		if r.failed() {
			failed++
		}
	}
	return fmt.Sprintf("%d ops in %.3fs, %d failed, set-up %.4fs, %d worker(s)",
		len(pr.results), float64(ns)/1e9, failed, pr.setup.Seconds(), len(pr.procs))
}

// printOps prints each op's medians over the passes it succeeded in.
func printOps(w io.Writer, passes []*passRun) {
	type samples struct{ ns, alloc, rss []float64 }
	by := map[string]*samples{}
	var names []string
	for _, pr := range passes {
		for _, r := range pr.results {
			if r.failed() {
				continue
			}
			s := by[r.Name]
			if s == nil {
				s = &samples{}
				by[r.Name] = s
				names = append(names, r.Name)
			}
			s.ns = append(s.ns, float64(r.NS))
			s.alloc = append(s.alloc, float64(r.Alloc))
			s.rss = append(s.rss, float64(r.RSS))
		}
	}
	sort.Strings(names)
	t := &harness.Table{Title: "Ops (medians over the passes each succeeded in)",
		Columns: []string{"op", "ms", "alloc MiB", "peak RSS MiB", "samples"}}
	for _, n := range names {
		s := by[n]
		t.AddRow(n, fmt.Sprintf("%.1f", median(s.ns)/1e6), fmt.Sprintf("%.1f", median(s.alloc)/mib),
			fmt.Sprintf("%.0f", median(s.rss)/1024), len(s.ns))
	}
	t.Render(w)
}

func printFailures(w io.Writer, passes []*passRun) {
	for _, pr := range passes {
		for _, r := range pr.results {
			if r.failed() {
				fmt.Fprintf(w, "FAILED %s pass %d op %s (%s): %s\n", pr.workload, pr.pass, r.Name, r.Fail, clip(r.Err))
			}
		}
	}
}

// e2e holds the end-to-end metrics of a run.
type e2e struct {
	wall, setup time.Duration
	alloc       float64
	rssKiB      int64
}

// endToEnd reduces passes to the end-to-end metrics. Each op's samples
// are taken across the passes in which it succeeded, so an op lost to a
// failure drops one sample rather than a whole pass. wall and alloc sum
// each op's median over the workload's ops; setup is the median over
// passes; peak RSS is the run's peak, the largest any op reached. (An
// op's peak depends on when the GC runs during it — Fig 7's spreads over
// about 985 to 1135 MiB — so a median of a run's few passes flips
// between values where the maximum settles near the top.)
func endToEnd(passes []*passRun) e2e {
	ns := map[string][]float64{}
	alloc := map[string][]float64{}
	var setups []float64
	var e e2e
	for _, pr := range passes {
		for _, r := range pr.results {
			if !r.failed() {
				ns[r.Name] = append(ns[r.Name], float64(r.NS))
				alloc[r.Name] = append(alloc[r.Name], float64(r.Alloc))
				e.rssKiB = max(e.rssKiB, r.RSS)
			}
		}
		setups = append(setups, float64(pr.setup))
	}
	for name, v := range ns {
		e.wall += time.Duration(median(v))
		e.alloc += median(alloc[name])
	}
	e.setup = time.Duration(median(setups))
	return e
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tracedRun runs one untraced and one traced pass of every workload,
// the named one first, and reports each layer's self time per workload
// plus the tracing overhead. Spans go through an obs.Recorder to a
// Chrome trace and a metrics snapshot under traceDir (cldiff inputs).
func (b *bench) tracedRun(ctx context.Context, first *workload) (*output, error) {
	ws := []*workload{first}
	for _, w := range workloads() {
		if w.name != first.name {
			ws = append(ws, w)
		}
	}
	merged := obs.NewRecorder()
	var all []*passRun
	stats := map[string]map[string]*layerStat{}
	opTime := map[string]float64{}
	overhead := map[string]float64{}
	for _, w := range ws {
		plain, err := b.runPass(ctx, w, 0, false)
		if err != nil {
			return nil, err
		}
		traced, err := b.runPass(ctx, w, 0, true)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(b.stdout, "%s untraced: %s\n%s traced:   %s\n", w.name, passLine(plain), w.name, passLine(traced))
		all = append(all, plain, traced)
		for _, p := range traced.procs {
			merged.Merge(replayed(p, b.start), w.name)
		}
		stats[w.name], opTime[w.name] = layerStatsOf(traced.procs)
		overhead[w.name] = overheadRatio(plain, traced)
	}
	out := &output{Metrics: perLayer(stats, overhead)}
	out.tally(all)
	printLayerTable(b.stdout, ws, stats, opTime, overhead)
	printFailures(b.stdout, all)
	if err := writeTrace(traceDir, first.name, b.seed, merged, stats); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.stdout, "wrote %s\n", filepath.Join(traceDir, traceBase(first.name, b.seed)+".{trace,snapshot}.json"))
	return out, nil
}

// layerStatsOf folds the spans of a traced pass's workers. A worker
// that resumed the pass repeated the set-up; only the first one counts.
func layerStatsOf(procs []*proc) (map[string]*layerStat, float64) {
	total := map[string]*layerStat{}
	var opTime float64
	for i, p := range procs {
		layers, t := passLayers(p.spans)
		opTime += float64(t)
		for name, l := range layers {
			if i > 0 && strings.HasPrefix(name, setupSpan) {
				continue
			}
			acc := total[name]
			if acc == nil {
				acc = &layerStat{Counts: map[string]float64{}}
				total[name] = acc
			}
			acc.Self += l.Self
			acc.Calls += l.Calls
			acc.Alloc += l.Alloc
			for k, v := range l.Counts {
				acc.Counts[k] += v
			}
		}
	}
	return total, opTime
}

// overheadRatio is the traced pass's op time over the untraced pass's,
// over the ops that succeeded in both.
func overheadRatio(plain, traced *passRun) float64 {
	base := map[string]int64{}
	for _, r := range plain.results {
		if !r.failed() {
			base[r.Name] = r.NS
		}
	}
	var p, t int64
	for _, r := range traced.results {
		if b, ok := base[r.Name]; ok && !r.failed() {
			p += b
			t += r.NS
		}
	}
	if p == 0 {
		return 0
	}
	return float64(t) / float64(p)
}

// replayed rebuilds a worker's spans in a recorder, shifted onto the
// run's clock.
func replayed(p *proc, runStart time.Time) *obs.Recorder {
	rec := obs.NewRecorder()
	shift := units.Duration(p.t0 - runStart.UnixNano())
	ids := map[int]int{}
	for _, s := range p.spans {
		parent := obs.NoParent
		if id, ok := ids[s.Parent]; ok {
			parent = id
		}
		id := rec.Record(parent, s.Kind, s.Name, s.Start+shift, s.End+shift)
		ids[s.ID] = id
		for _, a := range s.Attrs {
			rec.Annotate(id, a.Key, a.Val)
		}
	}
	return rec
}

// perLayer derives the per-layer metrics from the layer statistics of
// every workload's traced pass: each is summed over the workloads.
func perLayer(stats map[string]map[string]*layerStat, overhead map[string]float64) map[string]metric {
	sum := func(f func(name string, l *layerStat) float64) float64 {
		v := 0.0
		for _, layers := range stats {
			for name, l := range layers {
				v += f(name, l)
			}
		}
		return v
	}
	self := func(layers ...string) float64 {
		return sum(func(name string, l *layerStat) float64 {
			for _, want := range layers {
				if name == want {
					return l.Self.Seconds()
				}
			}
			return 0
		})
	}
	named := map[string]bool{}
	for _, id := range namedExperiments {
		named["experiments."+id] = true
	}
	count := func(key string) float64 {
		return sum(func(_ string, l *layerStat) float64 { return l.Counts[key] })
	}
	allocOf := func(layer string) float64 {
		return sum(func(name string, l *layerStat) float64 {
			if name == layer {
				return l.Alloc
			}
			return 0
		})
	}
	m := map[string]metric{}
	for _, id := range namedExperiments {
		m["experiments."+id+"_s"] = metric{self("experiments." + id), "s"}
	}
	m["experiments.fig7_alloc_mb"] = metric{allocOf("experiments.fig7") / mib, "MiB"}
	m["experiments.rest_s"] = metric{sum(func(name string, l *layerStat) float64 {
		if strings.HasPrefix(name, "experiments.") && !named[name] {
			return l.Self.Seconds()
		}
		return 0
	}), "s"}
	m["harness.render_s"] = metric{self("harness.render"), "s"}
	m["kernels.make_s"] = metric{self("kernels.make", setupSpan+"/kernels.make"), "s"}
	m["core.best_workgroup_s"] = metric{self("core.best_workgroup"), "s"}
	m["replay.pinned_s"] = metric{self("replay.pinned"), "s"}
	m["replay.pinned_alloc_mb"] = metric{allocOf("replay.pinned") / mib, "MiB"}
	m["replay.trace_mb"] = metric{count("replay.trace_bytes") / mib, "MiB"}
	m["replay.fallbacks"] = metric{count("replay.fallbacks"), "count"}
	m["gpu.estimate_s"] = metric{self("gpu.estimate"), "s"}
	m["core.analyze_s"] = metric{self("core.analyze"), "s"}
	m["core.tune_cold_s"] = metric{self("core.tune_cold"), "s"}
	m["core.tune_warm_s"] = metric{self("core.tune_warm"), "s"}
	est, hits := count("search.estimates"), count("search.hits")
	m["search.estimates"] = metric{est, "count"}
	hitRate := 0.0
	if est+hits > 0 {
		hitRate = hits / (est + hits)
	}
	m["search.hit_rate"] = metric{hitRate, "ratio"}
	m["cl.create_s"] = metric{self("cl.create"), "s"}
	m["cl.write_s"] = metric{self("cl.write"), "s"}
	m["cl.read_s"] = metric{self("cl.read"), "s"}
	m["cl.launch_s"] = metric{self("cl.launch"), "s"}
	m["cl.moved_mb"] = metric{count("cl.moved_bytes") / mib, "MiB"}
	for w, r := range overhead {
		m["tracing."+w+"_ratio"] = metric{r, "ratio"}
	}
	return m
}

// namedExperiments have a per-layer metric of their own; the rest of the
// suite sums into experiments.rest_s.
var namedExperiments = []string{"fig7", "fig1", "fig3", "fig4", "ext-scaling"}

// printLayerTable prints the layer x workload table: per traced pass,
// each layer's self time, its share of the pass's op time, and its
// calls; then the counts and the tracing overhead.
func printLayerTable(w io.Writer, ws []*workload, stats map[string]map[string]*layerStat, opTime, overhead map[string]float64) {
	cols := []string{"layer"}
	var sets []map[string]*layerStat
	for _, wl := range ws {
		cols = append(cols, wl.name)
		sets = append(sets, stats[wl.name])
	}
	t := &harness.Table{Title: "Host time by layer (self time per traced pass, share of op time, calls)", Columns: cols}
	for _, name := range layerNames(sets...) {
		row := []any{name}
		for _, wl := range ws {
			l := stats[wl.name][name]
			if l == nil {
				row = append(row, "-")
				continue
			}
			share := "setup"
			if !strings.HasPrefix(name, setupSpan) && opTime[wl.name] > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(l.Self)/opTime[wl.name])
			}
			row = append(row, fmt.Sprintf("%.4fs %s x%d", l.Self.Seconds(), share, l.Calls))
		}
		t.AddRow(row...)
	}
	var keys []string
	seen := map[string]bool{}
	for _, set := range sets {
		for _, l := range set {
			for k := range l.Counts {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		row := []any{"count " + k}
		for _, wl := range ws {
			v := 0.0
			for _, l := range stats[wl.name] {
				v += l.Counts[k]
			}
			row = append(row, strconv.FormatFloat(v, 'f', -1, 64))
		}
		t.AddRow(row...)
	}
	row := []any{"op time (traced)"}
	for _, wl := range ws {
		row = append(row, fmt.Sprintf("%.4fs", opTime[wl.name]/1e9))
	}
	t.AddRow(row...)
	row = []any{"tracing overhead"}
	for _, wl := range ws {
		row = append(row, fmt.Sprintf("%+.1f%%", 100*(overhead[wl.name]-1)))
	}
	t.AddRow(row...)
	t.Render(w)
}

func traceBase(workload string, seed int64) string {
	return fmt.Sprintf("traced-%s-seed%d", workload, seed)
}

// writeTrace writes the traced run's spans as Chrome trace JSON and its
// per-layer statistics as a metrics snapshot (host.<workload>.<layer>.*
// keys), the two inputs cldiff attributes differences between. Self
// time is a histogram, as cldiff aligns snapshots by histogram sums.
func writeTrace(dir, workload string, seed int64, rec *obs.Recorder, stats map[string]map[string]*layerStat) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := rec.Registry()
	for w, layers := range stats {
		for name, l := range layers {
			key := "host." + w + "." + name
			reg.Observe(key+".self_ns", float64(l.Self))
			reg.Add(key+".calls", float64(l.Calls))
			reg.Add(key+".alloc_bytes", l.Alloc)
			for k, v := range l.Counts {
				reg.Add("host."+w+"."+k, v)
			}
		}
	}
	base := filepath.Join(dir, traceBase(workload, seed))
	write := func(path string, enc func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := enc(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".trace.json", func(f io.Writer) error {
		return rec.Chrome(1, "clbench").WriteJSON(f)
	}); err != nil {
		return err
	}
	return write(base+".snapshot.json", func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(reg.Snapshot())
	})
}

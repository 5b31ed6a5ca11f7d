package main

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clperf/internal/obs"
	"clperf/internal/units"
)

// Span attribute carrying a call's heap allocation in bytes.
const attrAlloc = "alloc_bytes"

// setupSpan names the root span of a worker's set-up.
const setupSpan = "setup"

// tracer records the traced run's spans into an obs.Recorder on the host
// clock: a root span per op (its id is the op's trace id) and a child
// span per timed public call, named after the layer the call enters.
// Counts attach to the op's root span. With a nil recorder (untraced
// runs) every method only makes the call.
type tracer struct {
	rec  *obs.Recorder
	t0   time.Time
	root int

	mu     sync.Mutex
	closed map[int]bool // root spans that end closed
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now(), root: obs.NoParent, closed: map[int]bool{}}
	if on {
		t.rec = obs.NewRecorder()
	}
	return t
}

func (t *tracer) now() units.Duration { return units.Duration(time.Since(t.t0).Nanoseconds()) }

// begin opens the root span of an op (or of the set-up).
func (t *tracer) begin(name string) {
	if t.rec != nil {
		t.root = t.rec.Begin(obs.NoParent, obs.KindRegion, name, t.now())
	}
}

// end closes the root span begin opened.
func (t *tracer) end() {
	if t.rec != nil {
		t.rec.End(t.root, t.now())
		t.mu.Lock()
		t.closed[t.root] = true
		t.mu.Unlock()
		t.root = obs.NoParent
	}
}

// call makes one timed public call into layer.
func (t *tracer) call(layer string, fn func() error) error {
	if t.rec == nil {
		return fn()
	}
	a0 := heapAllocs()
	id := t.rec.Begin(t.root, obs.KindRegion, layer, t.now())
	err := fn()
	t.rec.End(id, t.now())
	t.rec.Annotate(id, attrAlloc, strconv.FormatUint(heapAllocs()-a0, 10))
	return err
}

// count attaches a count to the current op.
func (t *tracer) count(key string, v float64) {
	if t.rec != nil {
		t.rec.Annotate(t.root, key, strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// spans returns the spans of finished ops and set-up: an op that
// overran its deadline leaves its root span open, and it is dropped with
// its children.
func (t *tracer) spans() []obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []obs.Span
	dropped := map[int]bool{}
	for _, s := range t.rec.Spans() {
		if (s.Parent == obs.NoParent && !t.closed[s.ID]) || dropped[s.Parent] {
			dropped[s.ID] = true
			continue
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children's spans cover.
func selfTimes(spans []obs.Span) map[int]units.Duration {
	type iv struct{ lo, hi units.Duration }
	byID := make(map[int]obs.Span, len(spans))
	kids := map[int][]iv{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]units.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered units.Duration
		var cur iv
		for i, v := range ivs {
			switch {
			case i == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerStat is one layer's share of a traced pass.
type layerStat struct {
	Self   units.Duration // self time summed over the layer's spans
	Calls  int
	Alloc  float64 // heap bytes allocated inside the layer's spans
	Counts map[string]float64
}

// passLayers folds a traced pass's spans into per-layer statistics. A
// child span's layer is its name; a root span's own time (op glue
// around the timed calls) is the layer "op". Spans under the set-up
// root are keyed "setup/<layer>". It also returns the summed op time,
// the base of each layer's share.
func passLayers(spans []obs.Span) (map[string]*layerStat, units.Duration) {
	self := selfTimes(spans)
	byID := make(map[int]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	layers := map[string]*layerStat{}
	get := func(name string) *layerStat {
		l := layers[name]
		if l == nil {
			l = &layerStat{Counts: map[string]float64{}}
			layers[name] = l
		}
		return l
	}
	var opTime units.Duration
	for _, s := range spans {
		name := s.Name
		if s.Parent == obs.NoParent {
			if s.Name == setupSpan {
				name = setupSpan
			} else {
				name = "op"
				opTime += s.End - s.Start
			}
		} else if p, ok := byID[s.Parent]; ok && p.Name == setupSpan {
			name = setupSpan + "/" + s.Name
		}
		l := get(name)
		l.Self += self[s.ID]
		l.Calls++
		for _, a := range s.Attrs {
			v, err := strconv.ParseFloat(a.Val, 64)
			if err != nil {
				continue
			}
			if a.Key == attrAlloc {
				l.Alloc += v
			} else {
				l.Counts[a.Key] += v
			}
		}
	}
	return layers, opTime
}

// layerNames returns the layers in report order: op-time layers first,
// then set-up layers, each alphabetical.
func layerNames(sets ...map[string]*layerStat) []string {
	seen := map[string]bool{}
	var names []string
	for _, set := range sets {
		for n := range set {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := strings.HasPrefix(names[i], setupSpan), strings.HasPrefix(names[j], setupSpan)
		if si != sj {
			return sj
		}
		return names[i] < names[j]
	})
	return names
}

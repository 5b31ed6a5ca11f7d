package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"runtime/debug"

	"clperf/internal/obs"
)

// message is one line of the worker protocol: a worker process writes
// "ready" after set-up, one "op" per op, and "end" last.
type message struct {
	Ev    string     `json:"ev"`
	Ops   int        `json:"ops,omitempty"`   // ready: ops in a pass
	Res   *result    `json:"res,omitempty"`   // op
	Late  bool       `json:"late,omitempty"`  // end: an op overran its deadline
	T0    int64      `json:"t0,omitempty"`    // end: the span clock's origin, Unix ns
	Spans []obs.Span `json:"spans,omitempty"` // end: traced runs only
	Err   string     `json:"err,omitempty"`   // end: set-up failed
}

// passOrder is the seeded op order of one pass: the workload seed
// permutes the ops, never their inputs.
func passOrder(n int, seed int64, pass int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass))).Perm(n)
}

// runWorker is the body of a worker process: set up w, then run the
// ops of one pass in seeded order, starting after the first skip. It
// stops after an op overruns its deadline; the parent resumes the pass
// in a fresh process, so a hung op never shares a process with a later
// one.
func runWorker(w *workload, seed int64, pass, skip int, traced bool, out io.Writer) error {
	enc := json.NewEncoder(out)
	tr := newTracer(traced)
	end := message{Ev: "end", T0: tr.t0.UnixNano()}
	tr.begin(setupSpan)
	ops, err := w.setup(tr)
	tr.end()
	if err == nil {
		if err := enc.Encode(message{Ev: "ready", Ops: len(ops)}); err != nil {
			return err
		}
		var refs map[string]json.RawMessage
		if refs, err = w.refs(); err == nil {
			check := refChecker(refs)
			order := passOrder(len(ops), seed, pass)
			for _, i := range order[min(skip, len(order)):] {
				// Each op starts from a collected heap with its free pages
				// returned to the OS: the garbage of the op before is not
				// charged to it, and every op faults in its memory afresh
				// instead of whatever the background scavenger left.
				debug.FreeOSMemory()
				res, late := runOp(ops[i], tr, w.deadline, check)
				if err := enc.Encode(message{Ev: "op", Res: &res}); err != nil {
					return err
				}
				if late {
					end.Late = true
					break
				}
			}
		}
	}
	if err != nil {
		end.Err = err.Error()
	}
	if traced {
		end.Spans = tr.spans()
	}
	return enc.Encode(end)
}

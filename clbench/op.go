package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// Failure kinds of an op. An op fails on an error, a panic, a missed
// deadline, a stall or a reference mismatch, and counts once in
// ops_failed.
const (
	failError    = "error"
	failPanic    = "panic"
	failDeadline = "deadline"
	failStall    = "stall"
	failMismatch = "mismatch"
)

// Stall detection. Every op is CPU-bound, so a process that uses
// (almost) no CPU for stallWindow while an op runs has every goroutine
// parked: the op is blocked for good and fails then, without waiting
// out its deadline.
const (
	stallWindow = 2 * time.Second
	stallPoll   = 250 * time.Millisecond
	stallCPU    = 20 * time.Millisecond
)

// cpuTime returns the CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// op is one unit of a workload's pass. run makes the timed public calls
// and returns a function that summarizes their output as the op's
// digest; the digest is taken outside the timed region and compared
// with the op's reference.
type op struct {
	name string
	run  func(tr *tracer) (digest func() (any, error), err error)
}

// result is the outcome of one op.
type result struct {
	Name  string `json:"name"`
	NS    int64  `json:"ns"`    // host time of the timed region
	Alloc uint64 `json:"alloc"` // heap bytes allocated in the timed region
	RSS   int64  `json:"rss"`   // peak resident set during the op, KiB
	Fail  string `json:"fail,omitempty"`
	Err   string `json:"err,omitempty"`
}

func (r result) failed() bool { return r.Fail != "" }

// heapAllocs returns the cumulative bytes the Go heap has allocated. It
// reads runtime/metrics, which does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checker compares an op's digest with its reference.
type checker func(name string, digest any) error

// runOp runs o under a deadline and checks its digest. late reports that
// the op overran the deadline or stalled: its goroutine is still running
// (or blocked for good), so the caller must start no further op in this
// process.
func runOp(o op, tr *tracer, deadline time.Duration, check checker) (res result, late bool) {
	type outcome struct {
		digest func() (any, error)
		err    error
		fail   string
		ns     int64
		alloc  uint64
	}
	done := make(chan outcome, 1) // buffered: a late op must not block on send
	resetPeakRSS()
	go func() {
		var out outcome
		defer func() {
			if p := recover(); p != nil {
				out.fail, out.err = failPanic, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
			done <- out
		}()
		tr.begin(o.name)
		a0 := heapAllocs()
		t0 := time.Now()
		out.digest, out.err = o.run(tr)
		out.ns = time.Since(t0).Nanoseconds()
		out.alloc = heapAllocs() - a0
		tr.end()
		if out.err != nil {
			out.fail = failError
		}
	}()
	start := time.Now()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	poll := time.NewTicker(stallPoll)
	defer poll.Stop()
	busyAt, busyCPU := start, cpuTime() // when the process last made progress
	res.Name = o.name
	for {
		select {
		case out := <-done:
			res.NS, res.Alloc, res.RSS = out.ns, out.alloc, peakRSS()
			if out.fail != "" {
				res.Fail, res.Err = out.fail, out.err.Error()
				return res, false
			}
			if err := checkDigest(o.name, out.digest, check); err != nil {
				res.Fail, res.Err = failMismatch, err.Error()
			}
			return res, false
		case <-timer.C:
			res.NS = deadline.Nanoseconds()
			res.Fail, res.Err = failDeadline, fmt.Sprintf("no result after %v", deadline)
			return res, true
		case now := <-poll.C:
			if c := cpuTime(); c-busyCPU >= stallCPU {
				busyAt, busyCPU = now, c
			} else if now.Sub(busyAt) >= stallWindow {
				res.NS = now.Sub(start).Nanoseconds()
				res.Fail, res.Err = failStall, fmt.Sprintf("no CPU used for %v: every goroutine is blocked", now.Sub(busyAt).Round(time.Millisecond))
				return res, true
			}
		}
	}
}

// checkDigest takes an op's digest and checks it, reporting a panic in
// either step as an error.
func checkDigest(name string, digest func() (any, error), check checker) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("digest panicked: %v", p)
		}
	}()
	if digest == nil {
		return fmt.Errorf("op returned no output")
	}
	d, err := digest()
	if err != nil {
		return err
	}
	return check(name, d)
}

// refChecker checks digests against references by op name. Both sides
// go through JSON, so a digest equals its reference exactly when the
// reference file would record the same value.
func refChecker(refs map[string]json.RawMessage) checker {
	return func(name string, digest any) error {
		raw, ok := refs[name]
		if !ok {
			return fmt.Errorf("no reference for op %q", name)
		}
		got, err := json.Marshal(digest)
		if err != nil {
			return fmt.Errorf("encode digest: %w", err)
		}
		var g, w any
		if err := json.Unmarshal(got, &g); err != nil {
			return fmt.Errorf("decode digest: %w", err)
		}
		if err := json.Unmarshal(raw, &w); err != nil {
			return fmt.Errorf("decode reference of %q: %w", name, err)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("output differs from reference: got %s, want %s", clip(string(got)), clip(string(raw)))
		}
		return nil
	}
}

// clip shortens s for an error message.
func clip(s string) string {
	const max = 240
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

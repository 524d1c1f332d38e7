package exp

import (
	"fmt"
	"runtime"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/workloads"
)

// The experiment suites are embarrassingly parallel: every (benchmark,
// config) run builds its own program image and core.System and shares no
// mutable state with any other run. The pool fans those runs across a
// bounded number of goroutines while the table is assembled on the calling
// goroutine in submission order, so the rendered output is byte-identical
// to the serial path at any job count.
//
// The pool is also the suite's fault boundary. Every run is a pure function
// of (benchmark, machine, options), so a task runs once: a retry would only
// replay the same panic. A run that panics or blows its deadline does not
// take the whole table generation down: the worker recovers, and the task
// resolves to a zero value with the error on record. Figures render such
// runs as explicit holes ("—") and attach a failure manifest, so a partial
// table degrades visibly instead of crashing or silently lying.
//
// Rule: a task submitted to the pool must never wait on another task's
// future, or a single-job pool deadlocks (the waiter holds the only slot).
// Experiments with cross-run dependencies (Resilience's fault-free bases)
// resolve the dependency in a phase before submitting the dependent tasks.

// pool bounds concurrent simulator runs and records their failures.
type pool struct {
	sem     chan struct{}
	timeout time.Duration
	// failures accumulates in wait order on the assembling goroutine —
	// deterministic at any job count, like the rows themselves.
	failures []Failure
}

// Failure is one failed run in a table's manifest.
type Failure struct {
	Label string
	Err   string
}

// newPool creates a pool running at most o.Jobs tasks at once (<= 0 selects
// runtime.NumCPU()), bounding each task to o.TaskTimeout (0 = no deadline).
func newPool(o Options) *pool {
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &pool{sem: make(chan struct{}, jobs), timeout: o.TaskTimeout}
}

// manifest returns the failures recorded so far, in wait order.
func (p *pool) manifest() []Failure { return p.failures }

// outcome is a finished task: its value and its error (nil on success).
type outcome[T any] struct {
	v   T
	err error
}

// task is a pending result. wait blocks until the task finishes and may be
// called repeatedly, but only from one goroutine (tables are assembled by
// the submitting goroutine).
type task[T any] struct {
	p     *pool
	label string
	ch    chan outcome[T]
	out   outcome[T]
	done  bool
}

// wait returns the task's value — the zero value when the run failed, in
// which case the failure is recorded in the pool's manifest (once, on the
// first wait).
func (t *task[T]) wait() T {
	if !t.done {
		t.out = <-t.ch
		t.done = true
		if t.out.err != nil {
			t.p.failures = append(t.p.failures, Failure{Label: t.label, Err: t.out.err.Error()})
		}
	}
	return t.out.v
}

// ok waits for the task and reports whether it produced a value.
func (t *task[T]) ok() bool {
	t.wait()
	return t.out.err == nil
}

// submit schedules fn and returns its future. Goroutines are spawned
// eagerly and gate on the pool's slots, so submission never blocks. The
// label names the run in the failure manifest.
func submit[T any](p *pool, label string, fn func() T) *task[T] {
	return submitStop(p, label, func(<-chan struct{}) T { return fn() })
}

// submitStop is submit for tasks that cooperate with the deadline: fn's
// stop channel closes when it expires, so nested window workers abort at
// the next safe point instead of burning CPU until process exit.
func submitStop[T any](p *pool, label string, fn func(stop <-chan struct{}) T) *task[T] {
	t := &task[T]{p: p, label: label, ch: make(chan outcome[T], 1)}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		t.ch <- attempt(p, fn)
	}()
	return t
}

// attempt runs fn behind the fault boundary: a panic becomes an error, and
// with a deadline set, an overlong run is reported as a timeout and
// abandoned — its stop channel is closed so cooperating tasks (sampled
// runs' window chains) wind down at their next boundary, while pure-compute
// exact runs are simply left to finish and be discarded. A result that
// arrives after the deadline is a timeout too, so whether a run met its
// deadline never depends on how the Go scheduler ordered the two wake-ups.
func attempt[T any](p *pool, fn func(stop <-chan struct{}) T) outcome[T] {
	start := time.Now()
	stop := make(chan struct{})
	resc := make(chan outcome[T], 1)
	go func() {
		var o outcome[T]
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("panic: %v", r)
			}
			resc <- o
		}()
		o.v = fn(stop)
	}()
	if p.timeout <= 0 {
		return <-resc
	}
	timer := time.NewTimer(p.timeout)
	defer timer.Stop()
	select {
	case o := <-resc:
		if time.Since(start) <= p.timeout {
			return o
		}
	case <-timer.C:
	}
	close(stop)
	return outcome[T]{err: fmt.Errorf("timed out after %v", p.timeout)}
}

// submitRun schedules one benchmark on one machine variant. The run's label
// is the benchmark, the HW/SW tag, and the variant's name if it has one.
func (p *pool) submitRun(bm workloads.Benchmark, v variant, o Options) *task[core.Results] {
	label := fmt.Sprintf("%s %s/%s", bm.Name, v.cfg.HW, v.cfg.SW)
	if v.name != "" {
		label += " " + v.name
	}
	return submitStop(p, label, func(stop <-chan struct{}) core.Results {
		return run(bm, v.cfg, o, stop)
	})
}

// allOK waits for every listed run (recording any failures in wait order)
// and reports whether they all succeeded.
func allOK(ts ...*task[core.Results]) bool {
	ok := true
	for _, t := range ts {
		if !t.ok() {
			ok = false
		}
	}
	return ok
}

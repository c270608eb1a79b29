// Package sim provides the non-preemptive coroutine scheduler the paper's
// TCP is built on (the COROUTINE functor parameter of Fig. 4), together
// with the virtual clock that replaces the paper's DECstation wall clock.
//
// The paper implements its scheduler "entirely in SML using continuations";
// thread switch costs only a few function calls and, because the scheduler
// is non-preemptive, "data structure locks are therefore not necessary".
// This package reproduces those semantics on the Go runtime's own
// coroutines: a forked thread's body runs inside iter.Pull, which lets
// exactly one side of a resume/yield pair execute at any moment, so control
// moves only at explicit scheduler calls (Fork, Yield, Sleep, condition
// waits) and the package itself starts no goroutine and needs no lock. No
// code in this repository takes a lock. A runtime coroutine still does not
// fork in the unit time the paper's continuations do, so a thread that
// exits leaves its coroutine to carry the next Fork, and the one coroutine
// forked per segment — Fig. 11's timer — is run by the scheduler itself
// (Timer) and becomes a thread only if it expires uncleared.
//
// Time is virtual. The clock advances when a thread sleeps past the last
// runnable instant, when a caller charges an explicit cost (Charge), and —
// if CPU charging is enabled — by the measured real execution time of each
// thread scaled by Config.CPUScale, which stands in for running the same
// code on 1994 hardware. With CPU charging disabled (the default) runs are
// bit-for-bit deterministic, which is what the paper's quasi-synchronous
// design promises: "once the actions have been placed on the queue the
// behavior of TCP is completely deterministic and testable."
package sim

import (
	"fmt"
	"iter"
	"strings"
	"time"

	"repro/internal/basis"
)

// Time is an absolute virtual time in nanoseconds since scheduler start.
type Time int64

// Duration re-exports time.Duration for virtual intervals; virtual and
// real durations share units, differing only in which clock consumes them.
type Duration = time.Duration

// String formats a virtual time like "1.234ms".
func (t Time) String() string { return time.Duration(t).String() }

// threadState tracks where a thread currently lives.
type threadState uint8

const (
	stateReady threadState = iota
	stateRunning
	stateSleeping
	stateBlocked
	stateDead
)

func (s threadState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	case stateDead:
		return "dead"
	}
	return "invalid"
}

// Thread is a cooperatively-scheduled thread of control.
type Thread struct {
	name      string
	prio      int
	seq       uint64
	state     threadState
	co        *coroutine // what the thread runs on; nil for Run's main thread
	startReal time.Time  // when this thread last received the CPU
	factor    float64    // per-thread CPU charge multiplier (inherited)

	prev, next *Thread // see Scheduler.threads
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// errKilled unwinds a parked thread when the scheduler shuts down.
type killedError struct{}

func (killedError) Error() string { return "sim: thread killed by scheduler shutdown" }

var errKilled = killedError{}

// sleeper is one place in the sleep heap: a thread, or the timer whose
// stand-in went to sleep.
type sleeper struct {
	wake Time
	seq  uint64
	t    *Thread
	tm   *Timer
}

// ready is one place in the run queue: a thread, or the stand-in for the
// thread Fig. 11 forks for tm. prio and seq are the thread's, or those
// the forked thread would have; a stand-in whose gen is no longer tm's
// was cleared or re-armed after it was queued and is void.
type ready struct {
	t    *Thread
	tm   *Timer
	prio int
	seq  uint64
	gen  uint32
}

// Config parameterizes a Scheduler.
type Config struct {
	// ChargeCPU, when true, advances the virtual clock by the measured
	// real execution time of each thread (scaled by CPUScale) every time
	// it gives up the CPU. When false the clock moves only by Sleep and
	// Charge, and runs are deterministic.
	ChargeCPU bool

	// CPUScale multiplies measured real durations before charging them.
	// The default 1000 calibrates a modern core to the paper's DECstation
	// 5000/125 (an empty function call: ~1.2 ns today vs the paper's
	// 1.2 µs).
	CPUScale float64

	// Priority, when true, orders the ready queue by thread priority
	// (lower value runs first) instead of round-robin FIFO — the
	// replacement the paper proposes for latency-critical actions.
	Priority bool
}

// Scheduler owns a set of coroutine threads and the virtual clock.
type Scheduler struct {
	cfg      Config
	now      Time
	readyQ   basis.FIFO[ready]
	readyPQ  *basis.Heap[ready]
	sleepers *basis.Heap[sleeper]
	current  *Thread
	seq      uint64
	blocked  int
	// threads is the sentinel of a ring (prev/next) of the forked threads
	// that have not exited, in creation order, for serialized shutdown:
	// it holds what is parked, not what ever ran.
	threads Thread
	idle    []*coroutine // parked by threads that exited, for fork to reuse
	stopped bool

	switches   uint64 // context-switch count, for the E-sched experiment
	forks      uint64 // threads created; a timer is one only once it expires
	timerFires uint64 // timer handlers run
	readyHW    int    // run-queue length high-water mark
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.CPUScale == 0 {
		cfg.CPUScale = 1000
	}
	s := &Scheduler{
		cfg: cfg,
		sleepers: basis.NewHeap[sleeper](func(a, b sleeper) bool {
			if a.wake != b.wake {
				return a.wake < b.wake
			}
			return a.seq < b.seq
		}),
	}
	s.threads.prev, s.threads.next = &s.threads, &s.threads
	s.sleepers.Track(func(sl sleeper, i int) {
		if sl.tm != nil {
			sl.tm.pos = i + 1
		}
	})
	if cfg.Priority {
		s.readyPQ = basis.NewHeap[ready](func(a, b ready) bool {
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.seq < b.seq
		})
	}
	return s
}

// Now returns the current virtual time, first charging the running
// thread's accumulated CPU time if CPU charging is enabled, so timestamps
// taken mid-computation are accurate.
func (s *Scheduler) Now() Time {
	s.syncClock()
	return s.now
}

// Charge advances the virtual clock by d on behalf of the current thread,
// modeling a cost the real code does not pay (for example the paper's
// per-packet Mach IPC send).
func (s *Scheduler) Charge(d Duration) {
	if d > 0 {
		s.now += Time(d)
	}
}

// Exclude runs fn without charging its real CPU time to the virtual
// clock. It models work that happened outside the paper's measured task
// — the Mach kernel's own copy at the device boundary, or benchmark
// bookkeeping — whose simulation cost must not leak into virtual time.
// No-op beyond calling fn when CPU charging is off.
func (s *Scheduler) Exclude(fn func()) {
	s.syncClock()
	fn()
	if s.cfg.ChargeCPU && s.current != nil {
		s.current.startReal = time.Now()
	}
}

// Switches reports how many context switches have occurred.
func (s *Scheduler) Switches() uint64 { return s.switches }

// Forks reports how many threads have been created.
func (s *Scheduler) Forks() uint64 { return s.forks }

// TimerFires reports how many timer handlers have run.
func (s *Scheduler) TimerFires() uint64 { return s.timerFires }

// ReadyHighWater reports the deepest the run queue has been.
func (s *Scheduler) ReadyHighWater() int { return s.readyHW }

// Current returns the running thread (nil outside Run).
func (s *Scheduler) Current() *Thread { return s.current }

// Stamp returns a trace prefix with the current virtual time, suitable for
// basis.Tracer.Stamp.
func (s *Scheduler) Stamp() string {
	return fmt.Sprintf("[%10v]", time.Duration(s.Now()))
}

// syncClock charges the current thread's measured CPU time to the clock.
func (s *Scheduler) syncClock() {
	if !s.cfg.ChargeCPU || s.current == nil {
		return
	}
	nowReal := time.Now()
	dt := nowReal.Sub(s.current.startReal)
	if dt > 0 {
		f := s.current.factor
		if f == 0 {
			f = 1
		}
		s.now += Time(float64(dt) * s.cfg.CPUScale * f)
	}
	s.current.startReal = nowReal
}

// SetChargeFactor sets the current thread's CPU charge multiplier;
// threads it forks from now on inherit it. The experiments package uses
// it to model 1994 SML/NJ code generation: every cycle a Fox host
// executes costs factor× what the same cycle costs the C baseline.
func (s *Scheduler) SetChargeFactor(f float64) {
	s.syncClock()
	if s.current != nil {
		s.current.factor = f
	}
}

// ChargeFactor returns the current thread's multiplier (1 if unset).
func (s *Scheduler) ChargeFactor() float64 {
	if s.current == nil || s.current.factor == 0 {
		return 1
	}
	return s.current.factor
}

// Run executes fn as the main thread, on the caller's goroutine, and
// services all forked threads until fn returns. Any still-live threads are
// then killed (their stacks unwound), so Run leaks nothing. A forked
// thread's panic or runtime.Goexit comes out of the resume that was running
// it, which is always inside a scheduler call of fn, and so unwinds fn and
// passes through Run to the caller with its original value after the same
// shutdown; a deferred call of fn that uses the scheduler on the way
// panics errKilled.
func (s *Scheduler) Run(fn func()) {
	if s.current != nil || s.stopped {
		panic("sim: Run called twice or on a stopped scheduler")
	}
	main := &Thread{name: "main", state: stateRunning, seq: s.nextSeq()}
	s.current = main
	main.startReal = time.Now()
	defer s.shutdown()
	fn()
}

// Fork creates a new thread running fn and places it at the tail of the
// ready queue; the caller keeps the CPU (the paper's "fork operation …
// takes unit time"). The thread inherits priority 0.
func (s *Scheduler) Fork(name string, fn func()) *Thread {
	return s.ForkPrio(name, 0, fn)
}

// ForkPrio creates a thread with an explicit priority; lower values run
// first when the scheduler was configured with Priority.
func (s *Scheduler) ForkPrio(name string, prio int, fn func()) *Thread {
	s.ensureRunnable("Fork")
	return s.fork(name, prio, s.current.factor, fn)
}

func (s *Scheduler) fork(name string, prio int, factor float64, fn func()) *Thread {
	t := &Thread{name: name, prio: prio, state: stateReady, seq: s.nextSeq(), factor: factor}
	s.forks++
	if n := len(s.idle); n > 0 {
		t.co, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		t.co = &coroutine{s: s}
		t.co.resume, t.co.stop = iter.Pull(t.co.run)
	}
	t.co.t, t.co.fn = t, fn
	s.track(t)
	s.pushThread(t)
	return t
}

// coroutine is what a forked thread runs on. Creating one costs several
// times a Thread, so it outlives its thread: it carries one thread at a
// time — t and fn, set by fork — and between two waits on the idle list.
type coroutine struct {
	s      *Scheduler
	t      *Thread
	fn     func()
	resume func() (struct{}, bool) // run t until it parks or exits; called by the main thread only
	stop   func()                  // unwind a parked t, or never start one not yet dispatched
	yield  func(struct{}) bool     // give the CPU back to the main thread; false is stop's order to unwind
}

// run is the body iter.Pull runs: one thread after another, each from its
// first dispatch to its exit. It returns only by shutdown's stop — the
// errKilled that unwinds a parked thread ends here — or by a panic or
// Goexit of the thread's own, which iter.Pull hands to the main thread's
// resume; stopped is set first so that no deferred call met on the way
// there, in this thread or in main, re-enters the scheduler.
func (c *coroutine) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		c.s.stopped = true
		c.t.state = stateDead
		if r := recover(); r != nil && r != errKilled {
			panic(r)
		}
	}()
	for {
		c.t.state = stateRunning
		c.t.startReal = time.Now()
		c.fn()
		c.fn = nil // an idle coroutine must not pin what the body captured
		c.s.exit(c.t)
		if !yield(struct{}{}) {
			return
		}
	}
}

// park gives the CPU up until t is dispatched again. A forked thread
// yields to the main thread; the main thread resumes whichever thread is
// current until that is itself again, so every switch between two forked
// threads passes through this loop.
func (s *Scheduler) park(t *Thread) {
	if t.co == nil {
		for s.current != t {
			s.current.co.resume()
		}
	} else if !t.co.yield(struct{}{}) {
		panic(errKilled)
	}
	t.state = stateRunning
	t.startReal = time.Now()
}

// Yield places the current thread at the tail of the ready queue — under
// Config.Priority, behind the ready threads of its own priority — and runs
// the next ready thread.
func (s *Scheduler) Yield() {
	s.ensureRunnable("Yield")
	cur := s.current
	s.syncClock()
	s.requeue(cur)
	s.reschedule(cur)
}

// Sleep suspends the current thread for at least d of virtual time.
// Non-positive durations yield.
func (s *Scheduler) Sleep(d Duration) {
	s.ensureRunnable("Sleep")
	if d <= 0 {
		s.Yield()
		return
	}
	cur := s.current
	s.syncClock()
	cur.state = stateSleeping
	s.sleepers.Push(sleeper{wake: s.now + Time(d), seq: s.nextSeq(), t: cur})
	s.reschedule(cur)
}

// block suspends the current thread until some other thread unblocks it.
func (s *Scheduler) block() {
	s.ensureRunnable("block")
	cur := s.current
	s.syncClock()
	cur.state = stateBlocked
	s.blocked++
	s.reschedule(cur)
}

// unblock moves a blocked thread to the ready queue. The caller keeps the
// CPU, mirroring the paper's design where actions never wait.
func (s *Scheduler) unblock(t *Thread) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("sim: unblock of %s thread %q", t.state, t.name))
	}
	s.blocked--
	s.requeue(t)
}

// requeue makes a thread that ran before ready again. It queues behind
// everything already ready at its priority, so it takes a fresh seq: with
// the one it was forked with, a Priority scheduler would put it back ahead
// of equal-priority threads that have been waiting for their turn.
func (s *Scheduler) requeue(t *Thread) {
	t.state = stateReady
	t.seq = s.nextSeq()
	s.pushThread(t)
}

// exit terminates the calling thread and makes the next runnable one
// current; the thread's coroutine parks itself on the idle list next.
func (s *Scheduler) exit(t *Thread) {
	s.syncClock()
	t.state = stateDead
	s.untrack(t)
	s.current = s.next()
	s.switches++
	s.idle = append(s.idle, t.co)
}

// track appends a forked thread to the shutdown ring; untrack unlinks an
// exiting one, leaving the survivors in creation order.
func (s *Scheduler) track(t *Thread) {
	t.prev, t.next = s.threads.prev, &s.threads
	t.prev.next, s.threads.prev = t, t
}

func (s *Scheduler) untrack(t *Thread) {
	t.prev.next, t.next.prev = t.next, t.prev
	t.prev, t.next = nil, nil
}

// reschedule hands the CPU from cur (already re-queued, asleep, or
// blocked) to the next runnable thread, then parks cur until its turn.
func (s *Scheduler) reschedule(cur *Thread) {
	next := s.next()
	s.switches++
	if next == cur {
		cur.state = stateRunning
		return
	}
	s.current = next
	s.park(cur)
}

// next picks the next thread to run, advancing the virtual clock over idle
// gaps and running the timers' stand-ins on the way (see Timer). It panics
// with a thread dump on total deadlock.
func (s *Scheduler) next() *Thread {
	for {
		if r, ok := s.popReady(); ok {
			if r.t != nil {
				return r.t
			}
			// The forked thread's first run: sleep d, or for d ≤ 0
			// yield — once more round the run queue, then the handler.
			if tm := r.tm; r.gen != tm.gen {
				// void: dropped without a switch
			} else if tm.d <= 0 {
				s.expire(tm)
			} else {
				s.sleepers.Push(sleeper{wake: s.now + Time(tm.d), seq: s.nextSeq(), tm: tm})
			}
			continue
		}
		if s.sleepers.Empty() {
			panic(s.deadlockReport())
		}
		// Jump the clock to the earliest wake time and release every
		// sleeper due at that instant, in FIFO seq order (the heap
		// tiebreak guarantees it).
		if first, _ := s.sleepers.Min(); first.wake > s.now {
			s.now = first.wake
		}
		for {
			due, ok := s.sleepers.Min()
			if !ok || due.wake > s.now {
				break
			}
			s.sleepers.Pop()
			if due.tm != nil {
				s.expire(due.tm)
			} else {
				s.requeue(due.t)
			}
		}
	}
}

func (s *Scheduler) pushThread(t *Thread) { s.pushReady(ready{t: t, prio: t.prio, seq: t.seq}) }

func (s *Scheduler) pushReady(r ready) {
	if s.readyPQ != nil {
		s.readyPQ.Push(r)
		if n := s.readyPQ.Len(); n > s.readyHW {
			s.readyHW = n
		}
		return
	}
	s.readyQ.Enqueue(r)
	if n := s.readyQ.Len(); n > s.readyHW {
		s.readyHW = n
	}
}

func (s *Scheduler) popReady() (ready, bool) {
	if s.readyPQ != nil {
		return s.readyPQ.Pop()
	}
	return s.readyQ.Dequeue()
}

func (s *Scheduler) nextSeq() uint64 {
	s.seq++
	return s.seq
}

func (s *Scheduler) ensureRunnable(op string) {
	if s.stopped {
		panic(errKilled)
	}
	if s.current == nil {
		panic("sim: " + op + " called outside Run")
	}
}

// shutdown kills every remaining thread once the main function is done,
// oldest first. stop returns only when its thread's deferred functions
// have run, so the dying keep the one-thread-at-a-time discipline and Run
// returns only once nothing of the simulation is still executing. A panic
// out of a dying thread's deferred call leaves through stop, and leaves
// the threads behind it parked for good.
func (s *Scheduler) shutdown() {
	s.stopped = true
	s.current = nil
	for t := s.threads.next; t != &s.threads; t = t.next {
		t.co.stop()
	}
	for _, c := range s.idle {
		c.stop()
	}
}

func (s *Scheduler) deadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v: no ready or sleeping threads (%d blocked)", time.Duration(s.now), s.blocked)
	if s.current != nil {
		fmt.Fprintf(&b, "; current=%q", s.current.name)
	}
	return b.String()
}

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkForever forks a thread that waits for a signal nobody sends and, when
// shutdown unwinds it, appends id to *unwound — complaining if it finds
// another thread in the middle of the same.
func parkForever(t *testing.T, s *Scheduler, id int, unwound *[]int, unwinding *int) {
	s.Fork("parked", func() {
		defer func() {
			*unwinding++
			if *unwinding != 1 {
				t.Errorf("thread %d unwinds while another is still unwinding", id)
			}
			*unwound = append(*unwound, id)
			*unwinding--
		}()
		NewCond(s).Wait()
	})
}

// runToEnd runs fn on a scheduler in a goroutine of its own, so that a
// Goexit passing through Run ends that goroutine and not the test's, and
// reports whether Run returned. It fails the test if Run does neither.
func runToEnd(t *testing.T, s *Scheduler, fn func()) (returned bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(fn)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run neither returned nor ended its goroutine")
	}
	return returned
}

func TestGoexitInForkedThreadEndsRun(t *testing.T) {
	s := det()
	var unwound []int
	unwinding, mainDefer := 0, false
	returned := runToEnd(t, s, func() {
		defer func() { mainDefer = true }()
		parkForever(t, s, 0, &unwound, &unwinding)
		parkForever(t, s, 1, &unwound, &unwinding)
		s.Yield()
		s.Fork("quitter", runtime.Goexit) // what t.Fatal does
		s.Sleep(time.Second)
		t.Error("main ran on after a forked thread's Goexit")
	})
	if returned {
		t.Error("Run returned; the Goexit should have ended its goroutine")
	}
	if !mainDefer || fmt.Sprint(unwound) != "[0 1]" {
		t.Errorf("main's defer ran: %v, shutdown unwound %v; want true, [0 1]", mainDefer, unwound)
	}
}

// A thread still in the run queue when the main function returns has no
// stack to unwind and must not be given one, on a new coroutine or on one
// an earlier thread left behind.
func TestNeverDispatchedThreadNeverStarts(t *testing.T) {
	s := det()
	s.Run(func() {
		s.Fork("first", func() {})
		s.Yield() // it runs, exits and leaves its coroutine idle
		if len(s.idle) != 1 {
			t.Fatalf("%d idle coroutines after one exit, want 1", len(s.idle))
		}
		for _, name := range []string{"reusing", "new"} {
			s.Fork(name, func() { t.Errorf("%s thread started at shutdown", name) })
		}
		if len(s.idle) != 0 {
			t.Fatalf("the second Fork left %d coroutines idle, want 0", len(s.idle))
		}
	})
}

// A coroutine is reused; a thread is not. bench/trace.go keys its span
// stacks by *Thread, so the second thread on a coroutine must be a new one
// that takes name, priority and charge factor from its own Fork.
func TestReusedCoroutineCarriesNothingOver(t *testing.T) {
	s := New(Config{Priority: true})
	s.Run(func() {
		var inA, inB *Thread
		a := s.ForkPrio("a", 3, func() {
			inA = s.Current()
			s.SetChargeFactor(8)
		})
		s.Sleep(time.Millisecond)
		var factor float64
		b := s.ForkPrio("b", 5, func() {
			inB = s.Current()
			factor = s.ChargeFactor()
		})
		if a.co != b.co {
			t.Fatal("the second Fork did not reuse the idle coroutine; the test exercises nothing")
		}
		s.Sleep(time.Millisecond)
		if a == b || inA != a || inB != b {
			t.Errorf("Fork returned %p then %p; their bodies saw %p and %p", a, b, inA, inB)
		}
		if b.Name() != "b" || b.prio != 5 || factor != 1 {
			t.Errorf("second thread: name %q prio %d factor %v; want b, 5, 1", b.Name(), b.prio, factor)
		}
		if a.state != stateDead || b.state != stateDead {
			t.Errorf("states after both exited: %v, %v", a.state, b.state)
		}
	})
}

// Once the scheduler is stopping, every scheduler call panics errKilled
// and so keeps unwinding its thread — from a parked thread's deferred
// functions at shutdown and, when a forked thread's panic is on its way
// through main, from main's own.
func TestSchedulerCallsWhileDyingPanicKilled(t *testing.T) {
	for _, fatal := range []bool{false, true} {
		s := det()
		killed := 0
		try := func(call func()) {
			defer func() {
				if r := recover(); r != errKilled {
					t.Errorf("fatal=%v: scheduler call from a dying thread: recovered %v, want errKilled", fatal, r)
				}
				killed++
			}()
			call()
		}
		func() {
			defer func() {
				if r := recover(); fatal != (r == "boom") {
					t.Errorf("fatal=%v: Run panicked with %v", fatal, r)
				}
			}()
			s.Run(func() {
				if fatal {
					defer try(s.Yield)
				}
				c := NewCond(s)
				s.Fork("parked", func() {
					defer try(func() { s.Sleep(time.Second) })
					defer try(func() { s.Fork("late", func() {}) })
					defer try(c.Wait)
					c.Wait()
				})
				s.Yield()
				if fatal {
					s.Fork("bomber", func() { panic("boom") })
					s.Yield()
				}
			})
		}()
		want := 3 // the parked thread's three deferred calls
		if fatal {
			want++ // and main's
		}
		if killed != want {
			t.Errorf("fatal=%v: %d scheduler calls panicked errKilled, want %d", fatal, killed, want)
		}
	}
}

// A fork in steady state pays for its Thread and nothing else: the
// coroutine, eleven allocations new, comes from the idle list.
func TestSteadyStateForkExitAllocations(t *testing.T) {
	s := det()
	s.Run(func() {
		body := func() {}
		forkExit := func() {
			s.Fork("short", body)
			s.Yield()
		}
		forkExit()
		if got := testing.AllocsPerRun(1000, forkExit); got > 2 {
			t.Errorf("fork + exit allocates %.0f times, want ≤ 2", got)
		}
	})
	if len(s.idle) != 1 {
		t.Errorf("%d coroutines made for threads that ran one at a time, want 1", len(s.idle))
	}
}

// Under Config.Priority a thread that yields must let the ready threads of
// its own priority run. It used to keep the seq it was forked with, went
// back in ahead of them and span for ever.
func TestPriorityYieldGivesWayToEqualPriority(t *testing.T) {
	s := New(Config{Priority: true})
	s.Run(func() {
		ran := false
		s.Fork("b", func() { ran = true })
		for spins := 0; !ran; spins++ {
			if spins == 10 {
				t.Fatal("ten yields and the equal-priority thread has not run")
			}
			s.Yield()
		}
	})
}

// With every thread at one priority a Priority scheduler has nothing to
// reorder: yielding, waking, signalled and timer threads all queue behind
// what was ready before them, and the schedule is the FIFO one.
func TestEqualPrioritiesScheduleAsFIFO(t *testing.T) {
	run := func(priority bool) string {
		s := New(Config{Priority: priority})
		var log []string
		s.Run(func() {
			c := NewCond(s)
			var tm Timer
			tm.Bind(s, func() { log = append(log, "timer") })
			for i := 0; i < 4; i++ {
				s.Fork("worker", func() {
					for step := 0; step < 8; step++ {
						log = append(log, fmt.Sprintf("%d.%d@%v", i, step, s.Now()))
						switch (i + step) % 4 {
						case 0:
							s.Yield()
						case 1:
							s.Sleep(Duration(1+step%2) * time.Millisecond) // deadlines tie
						case 2:
							tm.Arm(Duration(step%3) * time.Millisecond)
							c.Wait()
						case 3:
							c.Signal()
						}
					}
				})
			}
			for i := 0; i < 20; i++ {
				s.Sleep(time.Millisecond)
				c.Broadcast()
			}
		})
		return strings.Join(log, " ")
	}
	fifo, prio := run(false), run(true)
	if fifo != prio {
		t.Errorf("equal priorities, different schedules:\n FIFO:     %s\n Priority: %s", fifo, prio)
	}
	if n := len(strings.Fields(fifo)); n < 32 {
		t.Fatalf("only %d log entries; the script exercises too little", n)
	}
}

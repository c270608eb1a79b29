package sim

import (
	"strings"
	"testing"
	"time"
)

// bound returns a timer on s that appends id to *log when it fires.
func bound(s *Scheduler, log *[]int, id int) *Timer {
	tm := new(Timer)
	tm.Bind(s, func() { *log = append(*log, id) })
	return tm
}

func TestTimerFiresAfterFirstRunPlusD(t *testing.T) {
	s := det()
	var at Time = -1
	s.Run(func() {
		var tm Timer
		tm.Bind(s, func() { at = s.Now() })
		tm.Arm(20 * time.Millisecond)
		// The forked thread would first run when the armer yields, after
		// this charge: the deadline counts from there.
		s.Charge(400 * time.Microsecond)
		s.Sleep(50 * time.Millisecond)
	})
	if want := Time(20*time.Millisecond + 400*time.Microsecond); at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if s.TimerFires() != 1 || s.Forks() != 1 {
		t.Fatalf("TimerFires = %d, Forks = %d; want 1, 1", s.TimerFires(), s.Forks())
	}
}

// A timer cleared before its deadline costs no thread and no switch, and
// leaves the sleep heap at once, wherever the clear finds it.
func TestClearedTimerCostsNoThread(t *testing.T) {
	s := det()
	var log []int
	s.Run(func() {
		queued, asleep := bound(s, &log, 0), bound(s, &log, 1)
		asleep.Arm(time.Hour)
		s.Yield() // the stand-in's first run: into the heap
		if s.sleepers.Len() != 1 {
			t.Fatalf("sleep heap holds %d, want the armed timer", s.sleepers.Len())
		}
		queued.Arm(time.Hour)
		sw := s.Switches()
		queued.Clear()
		asleep.Clear()
		if !s.sleepers.Empty() {
			t.Fatal("a cleared timer stayed in the sleep heap")
		}
		s.Yield()
		if got := s.Switches() - sw; got != 1 {
			t.Fatalf("%d switches for the yield, want 1 (none for the void stand-in)", got)
		}
		if !s.sleepers.Empty() {
			t.Fatal("a cleared stand-in went to sleep")
		}
	})
	if len(log) != 0 || s.Forks() != 0 || s.TimerFires() != 0 {
		t.Fatalf("fired %v, Forks = %d, TimerFires = %d", log, s.Forks(), s.TimerFires())
	}
}

// Set, clear and set again before the armer yields: the earlier stand-in
// is still ahead in the run queue and must be ignored when its turn comes.
func TestRearmWhileQueuedKeepsOnlyTheLastArm(t *testing.T) {
	for _, prio := range []bool{false, true} {
		s := New(Config{Priority: prio})
		var fires []Time
		s.Run(func() {
			var tm Timer
			tm.Bind(s, func() { fires = append(fires, s.Now()) })
			tm.Arm(10 * time.Millisecond)
			tm.Clear()
			tm.Arm(30 * time.Millisecond)
			tm.Arm(20 * time.Millisecond)
			s.Sleep(time.Second)
			if s.sleepers.Len() != 0 {
				t.Errorf("sleep heap holds %d after the only deadline", s.sleepers.Len())
			}
		})
		if len(fires) != 1 || fires[0] != Time(20*time.Millisecond) {
			t.Errorf("Priority=%v: fires = %v, want one at 20ms", prio, fires)
		}
	}
}

// Two timers due at the same instant are both woken before either
// handler runs; the first handler clears the second, which must not fire.
func TestClearBetweenWakeAndDispatch(t *testing.T) {
	s := det()
	var log []int
	s.Run(func() {
		second := bound(s, &log, 2)
		var first Timer
		first.Bind(s, func() {
			log = append(log, 1)
			second.Clear()
		})
		first.Arm(time.Millisecond)
		second.Arm(time.Millisecond)
		s.Sleep(time.Second)
	})
	if len(log) != 1 || log[0] != 1 {
		t.Fatalf("fired %v, want only the first", log)
	}
	if s.TimerFires() != 1 {
		t.Fatalf("TimerFires = %d, want 1", s.TimerFires())
	}
}

// d ≤ 0 is Sleep's yield: once more round the run queue — behind what
// was ready at the first run — then the handler, never the heap.
func TestNonPositiveDurationGoesRoundOnce(t *testing.T) {
	s := det()
	var log []int
	s.Run(func() {
		bound(s, &log, 1).Arm(0)
		s.Fork("a", func() { log = append(log, 2) })
		bound(s, &log, 3).Arm(-time.Second)
		s.Yield()
		if !s.sleepers.Empty() {
			t.Error("a timer with d ≤ 0 entered the sleep heap")
		}
		log = append(log, 4)
		s.Yield()
	})
	want := []int{2, 4, 1, 3}
	if len(log) != len(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order %v, want %v", log, want)
		}
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

func TestExpiryThreadCarriesArmersChargeFactor(t *testing.T) {
	s := New(Config{ChargeCPU: true})
	var got float64
	s.Run(func() {
		var tm Timer
		tm.Bind(s, func() { got = s.ChargeFactor() })
		s.SetChargeFactor(4)
		tm.Arm(time.Millisecond)
		s.SetChargeFactor(1)
		s.Sleep(time.Second)
	})
	if got != 4 {
		t.Fatalf("handler ran with factor %v, want the armer's 4", got)
	}
}

// A cleared far-future timer is not something to wait for: with every
// thread blocked the scheduler reports the deadlock where it stands
// rather than running the clock out to the dead deadline first.
func TestClearedTimerDoesNotHideDeadlock(t *testing.T) {
	s := det()
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "deadlock at 1ms") {
			t.Fatalf("panic = %q, want the deadlock at 1ms", r)
		}
	}()
	s.Run(func() {
		var tm Timer
		tm.Bind(s, func() { t.Error("cleared timer fired") })
		tm.Arm(2 * time.Hour)
		s.Sleep(time.Millisecond)
		tm.Clear()
		if s.readyQ.Len() != 0 || !s.sleepers.Empty() {
			t.Errorf("%d ready, %d asleep after the clear; want nothing runnable", s.readyQ.Len(), s.sleepers.Len())
		}
		NewCond(s).Wait()
	})
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Cleared() {
		t.Fatal("zero timer claims cleared")
	}
	tm.Clear()
	if !tm.Cleared() {
		t.Fatal("cleared zero timer denies it")
	}
}

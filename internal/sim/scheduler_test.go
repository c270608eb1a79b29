package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func det() *Scheduler { return New(Config{}) } // deterministic: no CPU charging

func TestRunExecutesMain(t *testing.T) {
	ran := false
	det().Run(func() { ran = true })
	if !ran {
		t.Fatal("main function did not run")
	}
}

func TestForkRunsAfterMainYields(t *testing.T) {
	s := det()
	var order []string
	s.Run(func() {
		s.Fork("child", func() { order = append(order, "child") })
		order = append(order, "main-before-yield")
		s.Yield()
		order = append(order, "main-after-yield")
	})
	want := "main-before-yield,child,main-after-yield"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestRoundRobinOrdering(t *testing.T) {
	s := det()
	var order []int
	s.Run(func() {
		for i := 1; i <= 3; i++ {
			i := i
			s.Fork("worker", func() {
				order = append(order, i)
				s.Yield()
				order = append(order, i+10)
			})
		}
		s.Yield() // let round one run
		s.Yield() // let round two run
	})
	want := []int{1, 2, 3, 11, 12, 13}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSleepAdvancesVirtualClock(t *testing.T) {
	s := det()
	var t0, t1 Time
	s.Run(func() {
		t0 = s.Now()
		s.Sleep(250 * time.Millisecond)
		t1 = s.Now()
	})
	if t1-t0 != Time(250*time.Millisecond) {
		t.Fatalf("slept %v of virtual time", time.Duration(t1-t0))
	}
}

func TestSleepersWakeInDeadlineOrder(t *testing.T) {
	s := det()
	var order []string
	s.Run(func() {
		s.Fork("late", func() { s.Sleep(30 * time.Millisecond); order = append(order, "late") })
		s.Fork("early", func() { s.Sleep(10 * time.Millisecond); order = append(order, "early") })
		s.Fork("mid", func() { s.Sleep(20 * time.Millisecond); order = append(order, "mid") })
		s.Sleep(40 * time.Millisecond)
	})
	if got := strings.Join(order, ","); got != "early,mid,late" {
		t.Fatalf("wake order = %s", got)
	}
}

func TestSimultaneousSleepersWakeFIFO(t *testing.T) {
	s := det()
	var order []int
	s.Run(func() {
		for i := 0; i < 5; i++ {
			i := i
			s.Fork("tied", func() {
				s.Sleep(10 * time.Millisecond)
				order = append(order, i)
			})
		}
		s.Sleep(20 * time.Millisecond)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("tied sleepers woke out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("only %d sleepers woke", len(order))
	}
}

func TestClockDoesNotAdvanceWhileReady(t *testing.T) {
	s := det()
	s.Run(func() {
		start := s.Now()
		for i := 0; i < 100; i++ {
			s.Yield()
		}
		if s.Now() != start {
			t.Errorf("clock moved by %v across pure yields", time.Duration(s.Now()-start))
		}
	})
}

func TestChargeAdvancesClock(t *testing.T) {
	s := det()
	s.Run(func() {
		start := s.Now()
		s.Charge(15 * time.Microsecond)
		if d := time.Duration(s.Now() - start); d != 15*time.Microsecond {
			t.Errorf("Charge advanced %v", d)
		}
	})
}

func TestMainExitKillsRemainingThreads(t *testing.T) {
	s := det()
	cleanedUp := false
	s.Run(func() {
		s.Fork("immortal", func() {
			defer func() { cleanedUp = true }()
			for {
				s.Sleep(time.Hour)
			}
		})
		s.Sleep(time.Second) // let it start sleeping
	})
	// Shutdown is synchronous: by the time Run returns, every killed
	// thread has finished unwinding (deferred functions included).
	if !cleanedUp {
		t.Fatal("immortal thread was not unwound before Run returned")
	}
}

func TestDeadlockPanics(t *testing.T) {
	s := det()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock did not panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Fatalf("panic = %v", r)
		}
	}()
	s.Run(func() {
		NewCond(s).Wait() // nobody will ever signal
	})
}

// A forked thread's panic reaches Run's caller with its own value, past
// main's deferred functions and after every parked thread was unwound,
// oldest first.
func TestWorkerPanicPropagatesToRun(t *testing.T) {
	s := det()
	var unwound []int
	unwinding, mainDefer := 0, false
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if !mainDefer || fmt.Sprint(unwound) != "[0 1]" {
			t.Fatalf("main's defer ran: %v, shutdown unwound %v; want true, [0 1]", mainDefer, unwound)
		}
	}()
	s.Run(func() {
		defer func() { mainDefer = true }()
		parkForever(t, s, 0, &unwound, &unwinding)
		parkForever(t, s, 1, &unwound, &unwinding)
		s.Yield()
		s.Fork("bomber", func() { panic("boom") })
		s.Sleep(time.Second)
		t.Error("main ran on after a forked thread's panic")
	})
	t.Fatal("Run returned instead of panicking")
}

func TestCondSignalWakesInOrder(t *testing.T) {
	s := det()
	var order []int
	s.Run(func() {
		c := NewCond(s)
		for i := 0; i < 3; i++ {
			i := i
			s.Fork("waiter", func() {
				c.Wait()
				order = append(order, i)
			})
		}
		s.Yield() // all three wait now
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d", c.Waiters())
		}
		c.Signal()
		c.Signal()
		c.Signal()
		s.Yield()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("signal order: %v", order)
		}
	}
	if len(order) != 3 {
		t.Fatalf("woke %d of 3", len(order))
	}
}

func TestCondBroadcast(t *testing.T) {
	s := det()
	woke := 0
	s.Run(func() {
		c := NewCond(s)
		for i := 0; i < 4; i++ {
			s.Fork("waiter", func() {
				c.Wait()
				woke++
			})
		}
		s.Yield()
		c.Broadcast()
		s.Yield()
	})
	if woke != 4 {
		t.Fatalf("broadcast woke %d of 4", woke)
	}
}

func TestCondSignalNoWaitersIsNoop(t *testing.T) {
	s := det()
	s.Run(func() {
		c := NewCond(s)
		c.Signal()
		c.Broadcast()
	})
}

func TestProducerConsumerViaCond(t *testing.T) {
	s := det()
	var got []int
	s.Run(func() {
		c := NewCond(s)
		var queue []int
		s.Fork("consumer", func() {
			for len(got) < 5 {
				for len(queue) == 0 {
					c.Wait()
				}
				got = append(got, queue[0])
				queue = queue[1:]
			}
		})
		for i := 0; i < 5; i++ {
			s.Sleep(time.Millisecond)
			queue = append(queue, i)
			c.Signal()
		}
		s.Sleep(time.Millisecond)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("consumed %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("consumed %d of 5", len(got))
	}
}

func TestPrioritySchedulingOrdersReadyQueue(t *testing.T) {
	s := New(Config{Priority: true})
	var order []string
	s.Run(func() {
		s.ForkPrio("low", 10, func() { order = append(order, "low") })
		s.ForkPrio("high", 1, func() { order = append(order, "high") })
		s.ForkPrio("mid", 5, func() { order = append(order, "mid") })
		s.Sleep(time.Millisecond) // step aside; children run by priority
	})
	if got := strings.Join(order, ","); got != "high,mid,low" {
		t.Fatalf("priority order = %s", got)
	}
}

func TestSwitchAndForkCounters(t *testing.T) {
	s := det()
	s.Run(func() {
		s.Fork("a", func() {})
		s.Yield()
	})
	if s.Forks() != 1 {
		t.Fatalf("Forks = %d", s.Forks())
	}
	if s.Switches() == 0 {
		t.Fatal("Switches = 0 after a yield")
	}
}

func TestChargeCPUAdvancesClockWithRealWork(t *testing.T) {
	s := New(Config{ChargeCPU: true, CPUScale: 1000})
	s.Run(func() {
		start := s.Now()
		// Burn a measurable amount of real CPU.
		x := 0
		for i := 0; i < 1_000_000; i++ {
			x += i
		}
		_ = x
		if s.Now() == start {
			t.Error("clock did not advance under CPU charging")
		}
	})
}

func TestDeterministicRunsIdentical(t *testing.T) {
	run := func() []string {
		s := det()
		var log []string
		s.Run(func() {
			c := NewCond(s)
			s.Fork("t1", func() { s.Sleep(3 * time.Millisecond); log = append(log, "t1"); c.Signal() })
			s.Fork("t2", func() { s.Sleep(1 * time.Millisecond); log = append(log, "t2") })
			s.Fork("t3", func() { log = append(log, "t3") })
			c.Wait()
			log = append(log, "main")
		})
		return log
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("two deterministic runs diverged:\n%v\n%v", a, b)
	}
}

func TestNowInsideForkedThread(t *testing.T) {
	s := det()
	s.Run(func() {
		var inner Time
		s.Fork("t", func() {
			s.Sleep(5 * time.Millisecond)
			inner = s.Now()
		})
		s.Sleep(10 * time.Millisecond)
		if inner != Time(5*time.Millisecond) {
			t.Errorf("forked thread saw %v", time.Duration(inner))
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	s := det()
	s.Run(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	s.Run(func() {})
}

func TestStampFormatsVirtualTime(t *testing.T) {
	s := det()
	s.Run(func() {
		s.Sleep(1500 * time.Microsecond)
		if got := s.Stamp(); !strings.Contains(got, "1.5ms") {
			t.Errorf("Stamp = %q", got)
		}
	})
}

// tracked counts the threads on the scheduler's shutdown list.
func (s *Scheduler) tracked() int {
	n := 0
	for t := s.threads.next; t != &s.threads; t = t.next {
		n++
	}
	return n
}

// A thread leaves the shutdown list when it exits, so a run that forks
// a thread per connection or per expired timer holds only what is parked. The survivors
// stay in creation order: shutdown unwinds them oldest first, one at a
// time, exactly as it did when the list kept every thread ever forked.
func TestExitedThreadsAreNotRetained(t *testing.T) {
	s := det()
	var unwound []int
	running := 0
	park := func(id int) { parkForever(t, s, id, &unwound, &running) }
	s.Run(func() {
		park(0)
		s.Yield()
		base := s.tracked()
		for i := 0; i < 100_000; i++ {
			s.Fork("short", func() {})
			if i == 50_000 {
				park(1)
			}
			if i%1000 == 999 {
				s.Yield() // the short threads run and exit
			}
		}
		park(2)
		s.Yield()
		if got, want := s.tracked(), base+2; got != want {
			t.Fatalf("%d threads tracked after 10^5 exits, want %d (the parked ones)", got, want)
		}
	})
	if len(unwound) != 3 || unwound[0] != 0 || unwound[1] != 1 || unwound[2] != 2 {
		t.Fatalf("shutdown unwound %v, want [0 1 2] (creation order)", unwound)
	}
}

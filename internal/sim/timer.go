package sim

// Timer is the paper's Fig. 11 timer — fork a thread that sleeps d and
// then calls the handler unless a shared flag was set meanwhile — with
// the thread's body run by the scheduler. Nothing in it needs a stack
// until the handler runs, so Arm queues a stand-in where Fork would have
// queued the thread; at the stand-in's turn (the thread's first run) it
// moves to the sleep heap for d; and only a timer that comes due
// uncleared is given a real thread, in the run-queue place the woken
// sleeper would have had. Virtual time and run order are the forked
// thread's exactly (DESIGN §16); a cleared timer costs no switch.
//
// Each Arm or Clear voids whatever an earlier Arm left queued or about
// to fire. The zero value is inert; Arm needs Bind first.
type Timer struct {
	s       *Scheduler
	handler func()
	d       Duration // the pending sleep, until the stand-in's first run
	factor  float64  // the arming thread's charge factor, for the expiry thread
	gen     uint32   // bumped by Arm and Clear; see ready.gen
	pos     int      // index in the sleep heap plus one; 0 when not asleep
	cleared bool
}

// Bind sets the scheduler t runs on and the handler its expiry calls.
func (t *Timer) Bind(s *Scheduler, handler func()) { t.s, t.handler = s, handler }

// Arm (re)starts the timer: the handler runs d of virtual time after the
// forked thread's first run, so a cost the arming thread charges before
// it yields delays the deadline.
func (t *Timer) Arm(d Duration) {
	s := t.s
	s.ensureRunnable("Arm")
	t.Clear()
	t.cleared = false
	t.d, t.factor = d, s.current.factor
	s.pushReady(ready{tm: t, seq: s.nextSeq(), gen: t.gen})
}

// Clear prevents the handler from running if it has not started yet, and
// takes the timer out of the sleep heap. Safe on a nil or idle timer.
func (t *Timer) Clear() {
	if t == nil {
		return
	}
	t.cleared = true
	t.gen++
	if t.pos != 0 {
		t.s.sleepers.Remove(t.pos - 1)
	}
}

// Cleared reports whether Clear was called since the last Arm.
func (t *Timer) Cleared() bool { return t != nil && t.cleared }

// expire forks the thread a due timer runs its handler on; the thread's
// fresh seq is the one the woken (or, for d ≤ 0, yielding) sleeper takes
// in requeue. The thread looks at the timer again when dispatched: a
// handler due at the same instant may have cleared it.
func (s *Scheduler) expire(tm *Timer) {
	gen := tm.gen
	s.fork("timer", 0, tm.factor, func() {
		if tm.gen == gen {
			s.timerFires++
			tm.handler()
		}
	})
}

// Package timers is the paper's Figure 11: the entire timer facility —
// start, clear, expiration — as fork, sleep and one shared boolean. The
// paper singles this out as evidence that higher-order functions plus fast
// thread creation make traditionally slow timer code "simple and fast".
// A thread here is not that fast to create, so the stack's timers keep the
// figure's semantics and timeline but leave the forked thread's body to
// the scheduler (sim.Timer); Fig11 keeps the figure itself, as the exhibit
// and the oracle the timers are tested against.
package timers

import "repro/internal/sim"

// Timer is the updatable cell returned by Start.
type Timer = sim.Timer

// Start arms a new timer: handler runs after d of virtual time, counted
// from when the thread Fig. 11 forks here would first have run, unless
// the returned timer is cleared in the meantime.
func Start(s *sim.Scheduler, handler func(), d sim.Duration) *Timer {
	t := new(Timer)
	t.Bind(s, handler)
	t.Arm(d)
	return t
}

// Fig11 is a direct transliteration of the paper's `start`; setting the
// returned flag is its `clear`.
//
//	fun start (handler, ms) =
//	  let val cleared = ref false
//	      fun sleep () = (Scheduler.sleep (ms);
//	                      if !cleared then () else handler ())
//	  in Scheduler.fork (Scheduler.Normal sleep); cleared end
func Fig11(s *sim.Scheduler, handler func(), d sim.Duration) (cleared *bool) {
	cleared = new(bool)
	s.Fork("timer", func() {
		s.Sleep(d)
		if !*cleared {
			handler()
		}
	})
	return cleared
}

// This file holds the approved idioms: code on scheduler threads waits
// through sim's own primitives, counts with sync/atomic, and anything
// never handed to the scheduler may block however it likes. No want
// comments — the analyzer must stay silent here.
package noblocktest

import (
	"time"

	"sim"
	"timers"
)

func good(s *sim.Scheduler, sv *server) {
	s.Fork("worker", func() {
		s.Sleep(5) // the scheduler's sleep, charged to the sim clock
		s.Yield()
		sv.count.Add(1) // sync/atomic never blocks
	})
	c := sim.NewCond(s)
	s.Fork("waiter", func() {
		c.Wait() // sim.Cond parks inside the scheduler
	})
	timers.Start(nil, sv.tick, 5)
	var tm sim.Timer
	tm.Bind(s, sv.tick)
	tm.Arm(5)
}

func (sv *server) tick() { sv.count.Add(1) }

// offline is never registered with the scheduler, so its blocking is
// out of scope.
func offline() {
	time.Sleep(time.Second)
}

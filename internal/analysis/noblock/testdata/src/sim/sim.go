// Package sim is a miniature of repro/internal/sim for the noblock
// testdata: the cooperative scheduler whose primitives are the
// sanctioned handoff set.
package sim

type Duration int64

type Scheduler struct{}

type Thread struct{}

func (s *Scheduler) Fork(name string, fn func()) *Thread { fn(); return &Thread{} }

func (s *Scheduler) ForkPrio(name string, prio int, fn func()) *Thread { fn(); return &Thread{} }

func (s *Scheduler) Run(fn func()) { fn() }

func (s *Scheduler) Sleep(d Duration) {}

func (s *Scheduler) Yield() {}

// Timer is the owned, re-armed timer: Bind registers its callback once.
type Timer struct{ handler func() }

func (t *Timer) Bind(s *Scheduler, handler func()) { t.handler = handler }

func (t *Timer) Arm(d Duration) {}

type Cond struct{}

func NewCond(s *Scheduler) *Cond { return &Cond{} }

func (c *Cond) Wait()   {}
func (c *Cond) Signal() {}

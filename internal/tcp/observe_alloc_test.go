package tcp

// Allocation twins of the observer seam's cost claims: an unobserved
// door is free, and no consumer that is off makes a call site format or
// box anything.

import (
	"io"
	"testing"

	"repro/internal/basis"
	"repro/internal/sim"
	"repro/internal/stats"
)

// With nothing attached, enqueue→run of one Maybe_Send allocates nothing
// and takes the door's one branch the cheap way on both sides: the
// connection has no watch state at all, so any observer function that
// ran would fault on it.
func TestUnobservedDoorNoAllocs(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ep, c, _ := harness(s, StateEstab, Config{})
		if ep.obs.door || c.watch != nil {
			t.Fatalf("default endpoint observes its door (door=%v, watch=%v)", ep.obs.door, c.watch)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			c.enqueue(action{kind: actMaybeSend})
			c.run()
		})
		if allocs != 0 {
			t.Fatalf("unobserved enqueue→run allocates %.1f times per action, want 0", allocs)
		}
	})
}

// The event ring stores typed fields, so a state transition with a ring
// attached formats nothing; the text appears only when the ring is read.
func TestSetStateWithRingNoAllocs(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		ring := stats.NewEventRing(64)
		_, c, _ := harness(s, StateEstab, Config{Events: ring})
		next := [2]State{StateFinWait1, StateEstab}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.setState(next[i&1])
			i++
		})
		if allocs != 0 {
			t.Fatalf("setState with a ring attached allocates %.1f times, want 0", allocs)
		}
		evs := ring.Events()
		if last := evs[len(evs)-1]; last.Detail != "Estab -> Fin_Wait_1" && last.Detail != "Fin_Wait_1 -> Estab" {
			t.Fatalf("ring rendered %q, want a FROM -> TO transition", last.Detail)
		}
	})
}

// A trace-shaped event costs nothing while no tracer listens — neither
// with a nil tracer nor with one that is attached but switched off.
func TestDisabledTraceEventNoAllocs(t *testing.T) {
	for name, tr := range map[string]*basis.Tracer{
		"nil tracer":      nil,
		"disabled tracer": basis.NewTracer("tcp", io.Discard, false),
	} {
		inSim(t, func(s *sim.Scheduler) {
			_, c, _ := harness(s, StateEstab, Config{Trace: tr})
			c.tcb.rexmitQ.PushBack(&segment{seq: 1001, rexmits: 1})
			c.tcb.backoff = 2
			allocs := testing.AllocsPerRun(1000, func() {
				c.note(evRexmitTimeout, 1001, int64(c.currentRTO()))
				c.note(evFastRexmit, 1001, 0)
				c.note(evZeroWindow, 0, 0)
			})
			if allocs != 0 {
				t.Fatalf("%s: a trace-shaped event allocates %.1f times, want 0", name, allocs)
			}
		})
	}
}

package tcp

// Allocation twins of the observer seam's cost claims: an unobserved
// door is free, and no consumer that is off makes a call site format or
// box anything.

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/basis"
	"repro/internal/flight"
	"repro/internal/sim"
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

// lastFrame keeps only the newest journal frame, in a buffer it reuses.
type lastFrame struct{ b []byte }

func (w *lastFrame) Write(p []byte) (int, error) {
	w.b = append(w.b[:0], p...)
	return len(p), nil
}

// An ev record stores typed operands, so a state transition with a
// journal attached formats nothing; the text appears only when the
// record is read.
func TestSetStateWithJournalNoAllocs(t *testing.T) {
	inSim(t, func(s *sim.Scheduler) {
		w := &lastFrame{b: make([]byte, 0, 1024)}
		_, c, _ := harness(s, StateEstab, Config{Flight: flight.NewRecorder(w)})
		next := [2]State{StateFinWait1, StateEstab}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.setState(next[i&1])
			i++
		})
		if allocs != 0 {
			t.Fatalf("setState with a journal attached allocates %.1f times, want 0", allocs)
		}
		recs, err := flight.ReadAll(bytes.NewReader(w.b))
		if err != nil || len(recs) != 1 || recs[0].Kind != flight.KindEvent {
			t.Fatalf("last journal frame = %+v (%v), want one ev record", recs, err)
		}
		e := recs[0]
		if d := DescribeEvent(e.EvKind, e.EvA, e.EvB); d != "Estab -> Fin_Wait_1" && d != "Fin_Wait_1 -> Estab" {
			t.Fatalf("ev record renders %q, want a FROM -> TO transition", d)
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

// The connection series is a view over end deltas, so every field it
// reads must be one the TCB snapshot journals.
func TestSeriesFieldsAreJournaled(t *testing.T) {
	for _, name := range flight.SeriesFields {
		if snapIndex(name) < 0 {
			t.Errorf("flight.Series reads %q, which no end delta carries", name)
		}
	}
}

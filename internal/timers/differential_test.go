package timers

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// The oracle for the thread-less timers is Fig. 11 itself. A schedule is
// a seeded script run by the main thread over a handful of timer slots —
// arm, clear, re-arm in place, charge, yield, sleep, signal — whose
// handlers misbehave in every way the stack's do: clear another slot due
// at the same instant, re-arm themselves, sleep and wait on a condition.
// The script runs once with each slot a sim.Timer bound once and re-armed,
// and once with each arm a fresh Fig11 thread; the firing logs (who, when,
// in what order) and the final clocks must be equal.

const slots = 6

// facility is one implementation of "slot k: arm for d / clear".
type facility interface {
	arm(k int, d sim.Duration)
	clear(k int)
}

type owned struct{ t [slots]Timer }

func (o *owned) arm(k int, d sim.Duration) { o.t[k].Arm(d) }
func (o *owned) clear(k int)               { o.t[k].Clear() }

type fig11 struct {
	s       *sim.Scheduler
	handler [slots]func()
	cleared [slots]*bool
}

func (f *fig11) arm(k int, d sim.Duration) {
	f.clear(k)
	f.cleared[k] = Fig11(f.s, f.handler[k], d)
}

func (f *fig11) clear(k int) {
	if f.cleared[k] != nil {
		*f.cleared[k] = true
	}
}

// durations repeat so that deadlines tie, and include Sleep's yields.
var durations = []sim.Duration{0, -time.Millisecond, time.Microsecond, time.Millisecond, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}

func runSchedule(seed int64, priority, oracle bool) (log []string, end sim.Time) {
	s := sim.New(sim.Config{Priority: priority})
	rng := rand.New(rand.NewSource(seed))
	s.Run(func() {
		note := func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, args...))
		}
		cond := sim.NewCond(s)
		var f facility
		fires := [slots]int{}
		handler := func(k int) func() {
			return func() {
				fires[k]++
				note("fire %d", k)
				switch k {
				case 1: // clears its neighbour, perhaps between its wake and dispatch
					f.clear(2)
				case 3: // re-arms itself a few times
					if fires[k]%4 != 0 {
						f.arm(k, durations[(fires[k]+3)%len(durations)])
					}
				case 4: // a handler may sleep and wait like any thread
					s.Sleep(2 * time.Millisecond)
					note("slept %d", k)
					cond.Wait()
					note("woke %d", k)
				case 5: // arms another slot from inside a handler
					f.arm(0, time.Millisecond)
				}
			}
		}
		if oracle {
			o := &fig11{s: s}
			for k := range o.handler {
				o.handler[k] = handler(k)
			}
			f = o
		} else {
			o := &owned{}
			for k := range o.t {
				o.t[k].Bind(s, handler(k))
			}
			f = o
		}
		// Bystanders at other priorities, so Config.Priority has
		// something to reorder around the timers.
		for p := -1; p <= 1; p += 2 {
			p := p
			s.ForkPrio("bystander", p, func() {
				for i := 0; ; i++ {
					s.Sleep(time.Millisecond)
					note("tick %d", p)
					if i%3 == 0 {
						s.Yield()
					}
				}
			})
		}
		for step := 0; step < 400; step++ {
			k := rng.Intn(slots)
			switch op := rng.Intn(10); {
			case op < 4:
				f.arm(k, durations[rng.Intn(len(durations))])
			case op < 6:
				f.clear(k)
			case op < 7:
				s.Charge(400 * time.Microsecond) // SendCost, before the forker yields
			case op < 8:
				s.Yield()
			case op < 9:
				s.Sleep(durations[rng.Intn(len(durations))])
			default:
				cond.Broadcast()
			}
		}
		s.Sleep(100 * time.Millisecond) // every live timer comes due
		cond.Broadcast()
		s.Sleep(10 * time.Millisecond)
		note("end")
	})
	return log, s.Now()
}

func TestTimersMatchFig11(t *testing.T) {
	for _, priority := range []bool{false, true} {
		fired := 0
		for seed := int64(1); seed <= 60; seed++ {
			got, gotEnd := runSchedule(seed, priority, false)
			want, wantEnd := runSchedule(seed, priority, true)
			if gotEnd != wantEnd {
				t.Errorf("Priority=%v seed %d: final clock %v, Fig. 11's %v", priority, seed, gotEnd, wantEnd)
			}
			for i := 0; i < len(got) || i < len(want); i++ {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("Priority=%v seed %d: logs part at line %d of %d/%d:\n  timers: %v\n  Fig. 11: %v",
						priority, seed, i, len(got), len(want), at(got, i), at(want, i))
				}
			}
			fired += len(got)
		}
		if fired < 60*100 {
			t.Fatalf("Priority=%v: only %d log lines over 60 schedules; the schedules exercise too little", priority, fired)
		}
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(nothing)"
}

// An owned timer's arm and clear allocate nothing, asleep or still
// queued; Start pays for the timer it returns and nothing else.
func TestArmAndClearDoNotAllocate(t *testing.T) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		var tm Timer
		h := func() {}
		tm.Bind(s, h)
		measure := func(what string, max float64, fn func()) {
			if got := testing.AllocsPerRun(200, fn); got > max {
				t.Errorf("%s allocates %.0f times, want ≤ %.0f", what, got, max)
			}
		}
		measure("re-arm + clear while queued", 0, func() {
			tm.Arm(time.Hour)
			tm.Arm(time.Minute)
			tm.Clear()
			s.Yield() // the void stand-ins leave the run queue
		})
		measure("arm + sleep + clear", 0, func() {
			tm.Arm(time.Hour)
			s.Yield() // into the sleep heap
			tm.Clear()
		})
		measure("Start + Clear", 1, func() {
			Start(s, h, time.Hour).Clear()
			s.Yield()
		})
	})
	if s.Forks() != 0 {
		t.Fatalf("Forks = %d: a cleared timer became a thread", s.Forks())
	}
}

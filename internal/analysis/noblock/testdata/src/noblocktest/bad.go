// Package noblocktest exercises the noblock analyzer: code reachable
// from scheduler roots must not block outside the scheduler.
package noblocktest

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sim"
)

type handlers struct {
	Data func()
	Err  func()
}

type server struct {
	tm    sim.Timer
	mu    sync.Mutex
	count atomic.Int64
	ch    chan int
	h     func()
	hs    handlers
}

func (sv *server) Attach(h func())       { sv.h = h }
func (sv *server) SetHandler(h handlers) { sv.hs = h }

func bad(s *sim.Scheduler, sv *server) {
	s.Fork("sleeper", func() {
		time.Sleep(time.Millisecond) // want "time.Sleep parks the OS thread"
	})
	s.Run(func() {
		sv.lockIt() // reported inside lockIt, where the sync calls are
	})
	s.Fork("chatty", func() {
		sv.ch <- 1 // want "a raw channel send"
		<-sv.ch    // want "a raw channel receive"
	})
	s.Fork("selecty", func() {
		select { // want "a select statement"
		case <-sv.ch: // want "a raw channel receive"
		default:
		}
	})
	s.Fork("escape", func() {
		go sv.tick() // want "a raw go statement"
	})
	s.Fork("drain", func() {
		for range sv.ch { // want "a range over a channel"
		}
	})
	sv.Attach(func() {
		sv.open()
	})
	// A callback bound to an owned timer is a root wherever it is armed.
	sv.tm.Bind(s, func() {
		time.Sleep(time.Second) // want "time.Sleep parks the OS thread"
	})
	sv.tm.Arm(5)
	sv.SetHandler(handlers{Data: sv.onData})
}

func (sv *server) lockIt() {
	sv.mu.Lock()   // want "sync.Lock waits without yielding"
	sv.mu.Unlock() // want "sync.Unlock waits without yielding"
}

func (sv *server) open() {
	f, _ := os.Open("/dev/null") // want "os.Open is operating-system I/O"
	_ = f
}

func (sv *server) onData() {
	var wg sync.WaitGroup
	wg.Wait() // want "sync.Wait waits without yielding"
}

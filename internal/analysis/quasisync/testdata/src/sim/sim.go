// Package sim is a miniature of repro/internal/sim for the quasisync
// testdata: Timer.Bind registers an asynchronously-invoked handler that
// every later Arm may run.
package sim

type Timer struct{ handler func() }

func (t *Timer) Bind(s any, handler func()) { t.handler = handler }

func (t *Timer) Arm(d int) {}

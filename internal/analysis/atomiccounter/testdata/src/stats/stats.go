// Package stats is a miniature of repro/internal/stats for the
// atomiccounter testdata: counter types whose fields only their own
// methods may touch.
package stats

import "telemetry"

type Counter struct{ v uint64 }

func (c *Counter) Inc() {
	if c != nil {
		c.v++ // own method: allowed
	}
}

func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

type Gauge struct {
	v  int64
	hw int64
}

func (g *Gauge) Add(d int64) int64 {
	g.v += d
	if g.v > g.hw {
		g.hw = g.v
	}
	return g.v
}

// TCPMIB groups counters the way the real registry does.
type TCPMIB struct {
	InSegs  Counter
	OutSegs Counter
	Estab   Gauge
	RttUsec telemetry.Hist
}

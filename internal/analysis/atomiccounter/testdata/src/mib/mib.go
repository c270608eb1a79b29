// Package mib exercises the atomiccounter analyzer from outside the
// stats package: fields are unexported, so cross-package misuse takes
// the shape of copies and overwrites.
package mib

import "stats"

func clobber(m *stats.TCPMIB, n *stats.TCPMIB) {
	m.InSegs = n.InSegs // want "assignment overwrites a stats.Counter" "stats.Counter copied by value"
	snap := m.Estab     // want "stats.Gauge copied by value"
	_ = snap
	rtt := m.RttUsec // want "telemetry.Hist copied by value"
	_ = rtt.Count()
}

func approved(m *stats.TCPMIB) uint64 {
	m.InSegs.Inc()
	m.Estab.Add(-1)
	m.RttUsec.Observe(7)
	return m.OutSegs.Load()
}

package stats

// In-package misuse: even inside the stats package, only a type's own
// methods may touch its fields.

func resetAll(m *TCPMIB) {
	m.InSegs.v = 0 // want "field v of stats.Counter accessed outside its methods"
	m.Estab.hw = 0 // want "field hw of stats.Gauge accessed outside its methods"
}

func clobber(m *TCPMIB) {
	m.InSegs = Counter{} // want "assignment overwrites a stats.Counter"
	c := m.OutSegs       // want "stats.Counter copied by value"
	_ = c
}

func byValue(c Counter) uint64 { return c.Load() }

func callSites(m *TCPMIB) {
	_ = byValue(m.InSegs) // want "stats.Counter passed by value"
}

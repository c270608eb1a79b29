package quasisync

// This file stands for the observer seam: functions declared in
// observe.go watch the executor's door on behalf of every sink —
// counters, ring, trace, journal, telemetry. They may read anything,
// but driving the machine they observe — the executor boundary or the
// synchronous modules — is a violation.

// observeEnqueue is a compliant observer: it only reads connection
// state.
func (c *Conn) observeEnqueue(a action) {
	_ = c.toDo
	_ = a
}

// observeBegin is compliant too: reading the queue depth is observing.
func (c *Conn) observeBegin() int {
	return len(c.toDo)
}

// badObserveEnqueue drives the executor from an observer.
func (c *Conn) badObserveEnqueue(a action) {
	c.enqueue(a) // want "badObserveEnqueue is an observer \\(declared in observe.go\\) and calls enqueue"
}

// badObserveDrain kicks the drain from an observer.
func (c *Conn) badObserveDrain() {
	c.run() // want "badObserveDrain is an observer .* calls run"
}

// badObservePerform performs an action itself instead of watching the
// executor do it.
func (c *Conn) badObservePerform(a action) {
	c.perform(a) // want "badObservePerform is an observer .* calls perform"
}

// badObserveSync enters a synchronous module directly.
func (c *Conn) badObserveSync() {
	c.sendModule() // want "badObserveSync is an observer .* calls sendModule, declared in send.go"
}

// badObserveDeep reaches the Receive module through an observe.go-local
// helper; the walk descends and reports at the offending call site.
func (c *Conn) badObserveDeep() {
	c.observeHelper()
}

func (c *Conn) observeHelper() {
	c.receiveSegment() // want "observeHelper is an observer .* calls receiveSegment, declared in receive.go"
}

// badObserveFar reaches the boundary through a helper declared outside
// observe.go: the rule follows the call graph, not the file.
func (c *Conn) badObserveFar() {
	c.kick()
}

// Package quasisync exercises the quasisync analyzer: code reachable
// from async entry points may only enqueue onto to_do (and kick the
// drain), never call the Receive/Send/Resend modules directly.
package quasisync

type action int

type Conn struct {
	toDo      []action
	executing bool
}

// enqueue and run are the executor boundary: async code may call them,
// and the analyzer does not look inside them.
func (c *Conn) enqueue(a action) { c.toDo = append(c.toDo, a) }

func (c *Conn) run() {
	if c.executing {
		return
	}
	c.executing = true
	for len(c.toDo) > 0 {
		a := c.toDo[0]
		c.toDo = c.toDo[1:]
		c.perform(a)
	}
	c.executing = false
}

func (c *Conn) perform(a action) {
	switch a {
	case 0:
		c.receiveSegment()
	default:
		c.sendModule()
	}
}

// kick is an ordinary helper outside observe.go; reaching it from an
// observer makes its call to run the observer's violation.
func (c *Conn) kick() {
	c.run() // want "kick is an observer .* calls run"
}

package quasisync

import (
	"sim"
	"timers"
)

type network struct{ h func(src string) }

// Attach registers a wire-delivery handler — an async entry point.
func (n *network) Attach(h func(src string)) { n.h = h }

// handler is the approved wire-delivery shape: enqueue, then drain.
func (c *Conn) handler(src string) {
	c.enqueue(0)
	c.run()
}

// badHandler calls the Receive module directly from the delivery path.
func (c *Conn) badHandler(src string) {
	c.receiveSegment() // want "calls receiveSegment, declared in receive.go"
}

// badTimeout reaches the Send module through a helper.
func (c *Conn) badTimeout() {
	c.helper()
}

func (c *Conn) helper() {
	c.sendModule() // want "calls sendModule, declared in send.go"
}

func wire(c *Conn, n *network) {
	// Approved: the timer callback only enqueues and drains.
	timers.Start(nil, func() {
		c.enqueue(1)
		c.run()
	}, 5)

	// Violation inside the callback literal itself.
	timers.Start(nil, func() {
		c.receiveSegment() // want "calls receiveSegment, declared in receive.go"
	}, 5)

	// Violation through a registered method value.
	timers.Start(nil, c.badTimeout, 5)

	// The owned, re-armed form: the handler is bound once, so Bind is the
	// registration point and Arm carries no code.
	var ok, bad [2]sim.Timer
	for i := range ok {
		ok[i].Bind(nil, func() {
			c.enqueue(action(i))
			c.run()
		})
		bad[i].Bind(nil, func() {
			c.sendModule() // want "calls sendModule, declared in send.go"
		})
		bad[i].Arm(5)
	}

	n.Attach(c.handler)    // approved
	n.Attach(c.badHandler) // violation reported at the call site in badHandler
}

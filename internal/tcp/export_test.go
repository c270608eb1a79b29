package tcp

// Test-only exports for the external (package tcp_test) tests in this
// directory.

// OOORetained counts segment references still reachable through the
// out-of-order queue's backing array beyond its logical length — the
// retention the head-drain fix in drainOutOfOrder exists to prevent.
func OOORetained(c *Conn) int {
	oo := c.tcb.outOfOrder
	n := 0
	for _, sg := range oo[len(oo):cap(oo)] {
		if sg != nil {
			n++
		}
	}
	return n
}

// OOOQueued reports the current logical out-of-order queue length.
func OOOQueued(c *Conn) int { return len(c.tcb.outOfOrder) }

// MemUsed reports the endpoint's buffered-byte account.
func MemUsed(t *TCP) int { return t.mem.used }

// HalfOpenCount reports a listener's current half-open table size.
func HalfOpenCount(l *Listener) int { return len(l.halfOpen) }

// RexmitQueued reports how many segments a connection's retransmission
// queue holds.
func RexmitQueued(c *Conn) int { return c.tcb.rexmitQ.Len() }

// PoolFree reports how many retired data segments the endpoint's free
// list holds.
func PoolFree(t *TCP) int { return len(t.pool.free) }

// SndUna reports the oldest unacknowledged sequence number.
func SndUna(c *Conn) uint32 { return uint32(c.tcb.sndUna) }

package tcp_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// TestConnectionTableDoesNotLeak: repeated connect/transfer/close cycles
// must leave the demux tables empty once every TIME-WAIT has expired —
// the storage-management claim of the paper (automatic reclamation, no
// leaks) checked at the connection-state level.
func TestConnectionTableDoesNotLeak(t *testing.T) {
	cfg := tcp.Config{MSL: 200 * time.Millisecond}
	runPair(t, wire.Config{}, cfg, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{PeerClosed: func(c *tcp.Conn) { c.Shutdown() }}
		})
		for i := 0; i < 20; i++ {
			conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
			if err != nil {
				t.Fatalf("cycle %d open: %v", i, err)
			}
			conn.Write(make([]byte, 3000))
			if err := conn.Close(); err != nil {
				t.Fatalf("cycle %d close: %v", i, err)
			}
		}
		s.Sleep(5 * time.Second) // all 2MSL quarantines expire
		if n := a.TCP.ActiveConns(); n != 0 {
			t.Fatalf("client endpoint leaked %d connections", n)
		}
		if n := b.TCP.ActiveConns(); n != 0 {
			t.Fatalf("server endpoint leaked %d connections", n)
		}
	})
}

// TestReassemblyQueueRetainsNothing: a lossy transfer forces segments
// through the out-of-order queue; once the stream completes, neither the
// queue nor its backing array may still reference a delivered segment,
// and the endpoint memory accounts must read zero. This pins the fix for
// the head-drain reslice (outOfOrder = outOfOrder[1:]) that kept every
// drained segment reachable until the whole queue emptied.
func TestReassemblyQueueRetainsNothing(t *testing.T) {
	wcfg := wire.Config{Seed: 11, Loss: 0.05, Duplicate: 0.02}
	runPair(t, wcfg, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var serverConn *tcp.Conn
		var got int
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			serverConn = c
			return tcp.Handler{
				Data:       func(c *tcp.Conn, data []byte) { got += len(data) },
				PeerClosed: func(c *tcp.Conn) { c.Shutdown() },
			}
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 100<<10)
		if err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		s.Sleep(2 * time.Second)
		if got != len(payload) {
			t.Fatalf("delivered %d of %d bytes", got, len(payload))
		}
		if n := tcp.OOOQueued(serverConn); n != 0 {
			t.Fatalf("out-of-order queue still holds %d segments", n)
		}
		if n := tcp.OOORetained(serverConn); n != 0 {
			t.Fatalf("backing array retains %d drained segments", n)
		}
		for _, h := range []tcpHost{a, b} {
			if n := tcp.MemUsed(h.TCP); n != 0 {
				t.Fatalf("endpoint memory account nonzero after idle: %d", n)
			}
		}
	})
}

// TestAbortedConnectionsReclaimed: aborts and refusals must also clean
// the table — and an abort with data in flight must let go of it. The TCB
// outlives the connection (Stats reads it), so segments left on the
// retransmission queue would stay pinned for as long as the user holds
// the Conn; deleteTCB hands them back to the endpoint's free list.
func TestAbortedConnectionsReclaimed(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		for i := 0; i < 10; i++ {
			conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Write(make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			unacked, free := tcp.RexmitQueued(conn), tcp.PoolFree(a.TCP)
			if unacked == 0 {
				t.Fatalf("cycle %d: nothing in flight at the abort; the test no longer tests teardown", i)
			}
			conn.Abort()
			if n := tcp.RexmitQueued(conn); n != 0 {
				t.Fatalf("cycle %d: aborted connection still holds %d unacknowledged segments", i, n)
			}
			if got := tcp.PoolFree(a.TCP); got != free+unacked {
				t.Fatalf("cycle %d: free list %d -> %d across an abort with %d segments in flight", i, free, got, unacked)
			}
		}
		for i := 0; i < 5; i++ {
			a.TCP.Open(b.A, 9999, tcp.Handler{}) // refused
		}
		s.Sleep(5 * time.Second)
		if n := a.TCP.ActiveConns(); n != 0 {
			t.Fatalf("client leaked %d connections after aborts", n)
		}
		if n := b.TCP.ActiveConns(); n != 0 {
			t.Fatalf("server leaked %d connections after aborts", n)
		}
	})
}

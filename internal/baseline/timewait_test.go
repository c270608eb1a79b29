package baseline

import (
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/wire"
)

const testMSL = 2 * time.Second

// activeClose opens a connection from host 1 to host 2, closes it from
// host 1 and then from host 2, and calls body once the closer is in
// TIME-WAIT. With dropLastAck, host 2's port goes down as the closer
// acknowledges the peer's FIN, so that ACK is lost and the peer stays
// in LAST-ACK, retransmitting its FIN once the port is back up.
func activeClose(t *testing.T, dropLastAck bool, body func(s *sim.Scheduler, a *TCP, closer, peer *Conn, peerPort *wire.Port, entered sim.Time)) {
	t.Helper()
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{}, nil)
		ports := map[byte]*wire.Port{}
		mk := func(n byte) *TCP {
			addr := ip.HostAddr(n)
			ports[n] = seg.NewPort(addr.String(), nil)
			eth := ethernet.New(ports[n], ethernet.HostAddr(n), ethernet.Config{})
			res := arp.New(s, eth, addr, arp.Config{})
			res.AddStatic(ip.HostAddr(1), ethernet.HostAddr(1))
			res.AddStatic(ip.HostAddr(2), ethernet.HostAddr(2))
			ipl := ip.New(s, eth, res, ip.Config{Local: addr})
			return New(s, ipl.Network(ip.ProtoTCP), Config{MSL: testMSL})
		}
		a, b := mk(1), mk(2)
		var peer *Conn
		b.Listen(80, func(c *Conn) Handler { peer = c; return Handler{} })
		var entered sim.Time
		closer, err := a.Open(ip.HostAddr(2), 80, Handler{PeerClosed: func(*Conn) {
			// Runs after the closer has sent its ACK of the peer's FIN
			// and just before it enters TIME-WAIT.
			entered = s.Now()
			if dropLastAck {
				ports[2].SetUp(false)
			}
		}})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s.Fork("peer-close", func() { peer.Close() })
		s.Sleep(10 * time.Millisecond)
		if closer.st != stTimeWait {
			t.Fatalf("after both closes the closer is %v, want TIME-WAIT", closer.st)
		}
		body(s, a, closer, peer, ports[2], entered)
	})
}

// 2×MSL after an active close, the closer is CLOSED and gone from the
// demux table.
func TestTimeWaitExpires(t *testing.T) {
	activeClose(t, false, func(s *sim.Scheduler, a *TCP, closer, peer *Conn, _ *wire.Port, entered sim.Time) {
		if peer.st != stClosed {
			t.Fatalf("peer %v, want CLOSED", peer.st)
		}
		s.Sleep(sim.Duration(entered+sim.Time(2*testMSL)-s.Now()) - time.Millisecond)
		if closer.st != stTimeWait {
			t.Fatalf("left TIME-WAIT early: %v", closer.st)
		}
		s.Sleep(2 * time.Millisecond)
		if closer.st != stClosed || a.conns[closer.key] != nil {
			t.Fatalf("after 2×MSL: state %v, still in the demux table: %v", closer.st, a.conns[closer.key] != nil)
		}
	})
}

// A FIN retransmitted into TIME-WAIT (the closer's last ACK was lost) is
// acknowledged again, which closes the peer, and restarts the 2×MSL
// timer (RFC 793, TIME-WAIT state).
func TestTimeWaitRestartsOnFinRetransmit(t *testing.T) {
	activeClose(t, true, func(s *sim.Scheduler, a *TCP, closer, peer *Conn, peerPort *wire.Port, entered sim.Time) {
		if peer.st != stLastAck {
			t.Fatalf("peer %v, want LAST-ACK: the closer's ACK was not lost", peer.st)
		}
		peerPort.SetUp(true)
		sent := a.stats.SegsSent
		for a.stats.SegsSent == sent && s.Now() < entered+sim.Time(2*testMSL) {
			s.Sleep(time.Millisecond)
		}
		reacked := s.Now()
		s.Sleep(10 * time.Millisecond)
		if a.stats.SegsSent != sent+1 || peer.st != stClosed {
			t.Fatalf("retransmitted FIN drew %d segments, peer %v; want one ACK that closes the peer",
				a.stats.SegsSent-sent, peer.st)
		}
		s.Sleep(sim.Duration(entered+sim.Time(2*testMSL)-s.Now()) + time.Millisecond)
		if closer.st != stTimeWait {
			t.Fatalf("2×MSL timer not restarted: %v at %v after entering TIME-WAIT", closer.st, s.Now()-entered)
		}
		s.Sleep(sim.Duration(reacked+sim.Time(2*testMSL)-s.Now()) + time.Millisecond)
		if closer.st != stClosed || a.conns[closer.key] != nil {
			t.Fatalf("2×MSL after the retransmission: state %v", closer.st)
		}
	})
}

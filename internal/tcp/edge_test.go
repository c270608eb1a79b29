package tcp_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wire"
)

func TestWriteAfterCloseFails(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		conn.Close()
		if err := conn.Write([]byte("too late")); err != tcp.ErrClosed {
			t.Fatalf("Write after Close: %v", err)
		}
	})
}

func TestWriteOnResetConnectionReturnsError(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { server = c; return tcp.Handler{} })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		s.Sleep(100 * time.Millisecond)
		server.Abort()
		s.Sleep(100 * time.Millisecond)
		if err := conn.Write([]byte("into the void")); err != tcp.ErrReset {
			t.Fatalf("Write on reset conn: %v", err)
		}
		if conn.Err() != tcp.ErrReset {
			t.Fatalf("Err() = %v", conn.Err())
		}
	})
}

func TestOpenFromDuplicatePortRejected(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		if _, err := a.TCP.OpenFrom(b.A, 80, 6000, tcp.Handler{}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.TCP.OpenFrom(b.A, 80, 6000, tcp.Handler{}); err != tcp.ErrPortInUse {
			t.Fatalf("duplicate OpenFrom: %v", err)
		}
	})
}

func TestListenerCloseStopsNewConnections(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{UserTimeout: 3 * time.Second}, func(s *sim.Scheduler, a, b tcpHost) {
		l, err := b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.TCP.Open(b.A, 80, tcp.Handler{}); err != nil {
			t.Fatalf("open while listening: %v", err)
		}
		l.Close()
		if _, err := a.TCP.Open(b.A, 80, tcp.Handler{}); err != tcp.ErrRefused {
			t.Fatalf("open after listener close: %v", err)
		}
	})
}

func TestDoubleListenRejected(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		accept := func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} }
		if _, err := b.TCP.Listen(80, accept); err != nil {
			t.Fatal(err)
		}
		if _, err := b.TCP.Listen(80, accept); err != tcp.ErrPortInUse {
			t.Fatalf("second listen: %v", err)
		}
	})
}

func TestEstablishedUpcallFires(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		serverEstab := false
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Established: func(c *tcp.Conn) { serverEstab = true }}
		})
		clientEstab := false
		_, err := a.TCP.Open(b.A, 80, tcp.Handler{
			Established: func(c *tcp.Conn) { clientEstab = true },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(time.Second)
		if !clientEstab || !serverEstab {
			t.Fatalf("Established upcalls: client=%v server=%v", clientEstab, serverEstab)
		}
	})
}

func TestWriteBlocksOnFullSendBuffer(t *testing.T) {
	// A tiny send-buffer limit plus a closed window: Write must block and
	// then resume when the window opens.
	cfg := tcp.Config{SendBufferLimit: 2048, InitialWindow: 1024}
	runPair(t, wire.Config{}, cfg, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		done := false
		s.Fork("writer", func() {
			conn.Write(make([]byte, 20_000))
			done = true
		})
		s.Sleep(10 * time.Millisecond)
		if done {
			t.Fatal("Write of 20k returned instantly despite a 2k buffer")
		}
		s.Sleep(2 * time.Minute)
		if !done {
			t.Fatal("Write never completed")
		}
		if rc.buf.Len() != 20_000 {
			t.Fatalf("delivered %d", rc.buf.Len())
		}
	})
}

func TestShutdownInsideUpcallDoesNotDeadlock(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return tcp.Handler{PeerClosed: func(c *tcp.Conn) { c.Shutdown() }}
		})
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		conn.Write([]byte("x"))
		if err := conn.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s.Sleep(2 * time.Second)
		if server.State() != tcp.StateClosed {
			t.Fatalf("server state %v after shutdown-in-upcall", server.State())
		}
		if conn.State() != tcp.StateTimeWait {
			t.Fatalf("client state %v", conn.State())
		}
	})
}

func TestCloseIsIdempotentAndConcurrent(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		returns := 0
		for i := 0; i < 3; i++ {
			s.Fork("closer", func() {
				if err := conn.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
				returns++
			})
		}
		s.Sleep(5 * time.Second)
		if returns != 3 {
			t.Fatalf("%d of 3 Close calls returned", returns)
		}
	})
}

func TestMSSNegotiatedFromPeerOption(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { server = c; return tcp.Handler{} })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		s.Sleep(100 * time.Millisecond)
		// Both ends run over 1500-byte Ethernet minus 20 IP = 1480 minus
		// 20 TCP = 1460.
		if conn.MSS() != 1460 || server.MSS() != 1460 {
			t.Fatalf("negotiated MSS %d / %d, want 1460", conn.MSS(), server.MSS())
		}
	})
}

func TestSegmentsNeverExceedMSS(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var sizes []int
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) { sizes = append(sizes, len(d)) }}
		})
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		s.Fork("w", func() { conn.Write(make([]byte, 50_000)) })
		s.Sleep(time.Minute)
		total := 0
		for _, n := range sizes {
			if n > 1460 {
				t.Fatalf("delivered a %d-byte chunk > MSS", n)
			}
			total += n
		}
		if total != 50_000 {
			t.Fatalf("total %d", total)
		}
	})
}

func TestTortureAllFaultsAtOnce(t *testing.T) {
	// Loss, duplication, corruption (caught by the FCS), and reordering
	// together, bidirectional traffic, and the transfer still completes
	// intact — the integration analogue of the paper's claim that after
	// module tests pass the protocol "performs flawlessly".
	wcfg := wire.Config{
		Loss: 0.05, Duplicate: 0.05, Corrupt: 0.03,
		Jitter: 0.15, JitterMax: 4 * time.Millisecond, Seed: 1234,
	}
	runPair(t, wcfg, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		data := make([]byte, 40_000)
		r := basis.NewRand(99)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		var atob, btoa bytes.Buffer
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{Data: func(c *tcp.Conn, d []byte) {
				atob.Write(d)
				c.Write(append([]byte(nil), d...)) //foxvet:boundary-copy echo back through the same storm: Data only borrows d, and Write queues by reference
			}}
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{
			Data: func(c *tcp.Conn, d []byte) { btoa.Write(d) },
		})
		if err != nil {
			t.Fatalf("open through the storm: %v", err)
		}
		s.Fork("w", func() { conn.Write(data) })
		deadline := s.Now() + sim.Time(30*time.Minute)
		for btoa.Len() < len(data) && s.Now() < deadline {
			s.Sleep(time.Second)
		}
		if !bytes.Equal(atob.Bytes(), data) {
			t.Fatalf("forward path corrupted: %d/%d", atob.Len(), len(data))
		}
		if !bytes.Equal(btoa.Bytes(), data) {
			t.Fatalf("echo path corrupted: %d/%d", btoa.Len(), len(data))
		}
	})
}

func TestTimeWaitExpiresAndPortReusable(t *testing.T) {
	cfg := tcp.Config{MSL: 500 * time.Millisecond}
	runPair(t, wire.Config{}, cfg, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			return tcp.Handler{PeerClosed: func(c *tcp.Conn) { c.Shutdown() }}
		})
		conn, _ := a.TCP.OpenFrom(b.A, 80, 7777, tcp.Handler{})
		conn.Close()
		s.Sleep(300 * time.Millisecond)
		if conn.State() != tcp.StateTimeWait {
			t.Fatalf("state %v before 2MSL", conn.State())
		}
		// Reusing the port during TIME-WAIT fails...
		if _, err := a.TCP.OpenFrom(b.A, 80, 7777, tcp.Handler{}); err != tcp.ErrPortInUse {
			t.Fatalf("reuse during TIME-WAIT: %v", err)
		}
		s.Sleep(2 * time.Second) // ...and succeeds after it expires.
		if conn.State() != tcp.StateClosed {
			t.Fatalf("state %v after 2MSL", conn.State())
		}
		if _, err := a.TCP.OpenFrom(b.A, 80, 7777, tcp.Handler{}); err != nil {
			t.Fatalf("reuse after TIME-WAIT: %v", err)
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		payload := make([]byte, 10_000)
		s.Fork("w", func() { conn.Write(payload) })
		s.Sleep(time.Minute)
		as, bs := a.TCP.Stats(), b.TCP.Stats()
		if as.BytesSent != 10_000 {
			t.Fatalf("sender BytesSent = %d", as.BytesSent)
		}
		if bs.BytesReceived != 10_000 {
			t.Fatalf("receiver BytesReceived = %d", bs.BytesReceived)
		}
		if as.ConnsOpened != 1 || bs.ConnsAccepted != 1 {
			t.Fatalf("conn counters: %d/%d", as.ConnsOpened, bs.ConnsAccepted)
		}
		if as.SegsSent == 0 || bs.SegsSent == 0 {
			t.Fatal("segment counters empty")
		}
	})
}

func TestAbortDuringHandshakeDeliversTimeoutOrAbort(t *testing.T) {
	runPair(t, wire.Config{Loss: 1}, tcp.Config{UserTimeout: 2 * time.Second}, func(s *sim.Scheduler, a, b tcpHost) {
		var openErr error
		opened := false
		s.Fork("opener", func() {
			_, openErr = a.TCP.Open(b.A, 80, tcp.Handler{})
			opened = true
		})
		s.Sleep(10 * time.Second)
		if !opened {
			t.Fatal("Open never returned")
		}
		if openErr != tcp.ErrTimeout {
			t.Fatalf("open error = %v", openErr)
		}
	})
}

func TestIdlePersistDoesNotFireWithoutData(t *testing.T) {
	// An established, idle connection must stay quiet: no probes, no
	// retransmissions, no acks beyond the handshake.
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return tcp.Handler{} })
		a.TCP.Open(b.A, 80, tcp.Handler{})
		s.Sleep(time.Second)
		before := a.TCP.Stats().SegsSent
		s.Sleep(2 * time.Minute)
		if after := a.TCP.Stats().SegsSent; after != before {
			t.Fatalf("idle connection sent %d segments", after-before)
		}
	})
}

func TestLinkFlapRecovery(t *testing.T) {
	// Pull the cable mid-transfer for a few seconds; retransmission must
	// carry the stream through intact once the link returns.
	runPair(t, wire.Config{}, tcp.Config{}, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		data := make([]byte, 120_000)
		r := basis.NewRand(77)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		s.Fork("writer", func() { conn.Write(data) })
		s.Sleep(200 * time.Millisecond) // transfer under way
		b.Port.SetUp(false)
		s.Sleep(4 * time.Second) // several RTOs pass
		b.Port.SetUp(true)
		s.Sleep(10 * time.Minute)
		if !bytes.Equal(rc.buf.Bytes(), data) {
			t.Fatalf("flap broke the stream: %d of %d bytes", rc.buf.Len(), len(data))
		}
		if a.TCP.Stats().Retransmits == 0 {
			t.Fatal("no retransmissions across a 4s outage?")
		}
		if conn.Err() != nil {
			t.Fatalf("connection failed: %v", conn.Err())
		}
	})
}

func TestLinkDeadLongerThanUserTimeoutFails(t *testing.T) {
	cfg := tcp.Config{UserTimeout: 3 * time.Second}
	runPair(t, wire.Config{}, cfg, func(s *sim.Scheduler, a, b tcpHost) {
		var rc collector
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
		conn, _ := a.TCP.Open(b.A, 80, tcp.Handler{})
		var gotErr error
		conn.SetHandler(tcp.Handler{Error: func(c *tcp.Conn, err error) { gotErr = err }})
		s.Fork("writer", func() { conn.Write(make([]byte, 50_000)) })
		s.Sleep(200 * time.Millisecond)
		b.Port.SetUp(false) // and never back
		s.Sleep(time.Minute)
		if gotErr != tcp.ErrProgressTimeout {
			t.Fatalf("err = %v, want ErrProgressTimeout after dead link", gotErr)
		}
	})
}

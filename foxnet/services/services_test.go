package services_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/foxnet"
	"repro/foxnet/services"
)

func withServer(t *testing.T, body func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server)) {
	t.Helper()
	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	s.Run(func() {
		net := foxnet.NewNetwork(s, foxnet.WireConfig{}, 2)
		sv := services.New(s, net.Host(1).TCP)
		if err := sv.StartAll(); err != nil {
			t.Fatal(err)
		}
		body(s, net, sv)
	})
}

func TestEchoService(t *testing.T) {
	withServer(t, func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server) {
		var got bytes.Buffer
		conn, err := net.Host(0).TCP.Open(net.Host(1).Addr, services.EchoPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { got.Write(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := bytes.Repeat([]byte("echo this line. "), 500) // 8 KB
		s.Fork("w", func() { conn.Write(msg) })
		s.Sleep(time.Minute)
		if !bytes.Equal(got.Bytes(), msg) {
			t.Fatalf("echoed %d of %d bytes", got.Len(), len(msg))
		}
		if sv.Stats().EchoBytes != uint64(len(msg)) {
			t.Fatalf("EchoBytes = %d", sv.Stats().EchoBytes)
		}
	})
}

// TestEchoUnderFaults is the echo service where echoing is hard: loss,
// duplication and reordering in both directions, so the bytes a Data
// upcall brings often cannot leave at once — the peer's window is shut, a
// retransmission is pending — and Write holds them by reference long
// after the upcall returned and the device reused the frame they arrived
// in. The service must echo a copy. (Echoing the borrowed slice sends
// back whatever later frame landed in that buffer, or 0xA5 under -race.)
func TestEchoUnderFaults(t *testing.T) {
	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	s.Run(func() {
		net := foxnet.NewNetwork(s, foxnet.WireConfig{Seed: 11, Loss: 0.04, Duplicate: 0.03, Jitter: 0.1}, 2)
		sv := services.New(s, net.Host(1).TCP)
		if err := sv.StartEcho(); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		conn, err := net.Host(0).TCP.Open(net.Host(1).Addr, services.EchoPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { got.Write(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 60_000)
		for i := range msg {
			msg[i] = byte(i*7 + i/251) // no period a stale buffer could match
		}
		s.Fork("w", func() { conn.Write(msg) })
		for deadline := s.Now() + foxnet.Time(10*time.Minute); got.Len() < len(msg) && s.Now() < deadline; {
			s.Sleep(time.Second)
		}
		if !bytes.Equal(got.Bytes(), msg) {
			i := 0
			for i < got.Len() && got.Bytes()[i] == msg[i] {
				i++
			}
			t.Fatalf("echoed %d of %d bytes, first difference at byte %d", got.Len(), len(msg), i)
		}
		if st := net.Host(1).TCP.Stats(); st.Retransmits == 0 {
			t.Fatal("the wire was too kind: the server never had to retransmit an echo")
		}
	})
}

func TestDiscardService(t *testing.T) {
	withServer(t, func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server) {
		conn, err := net.Host(0).TCP.Open(net.Host(1).Addr, services.DiscardPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { t.Error("discard sent data back") },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Fork("w", func() { conn.Write(make([]byte, 30_000)); conn.Close() })
		s.Sleep(time.Minute)
		if sv.Stats().DiscardBytes != 30_000 {
			t.Fatalf("DiscardBytes = %d", sv.Stats().DiscardBytes)
		}
	})
}

func TestChargenStreamsUntilClientCloses(t *testing.T) {
	withServer(t, func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server) {
		var got bytes.Buffer
		conn, err := net.Host(0).TCP.Open(net.Host(1).Addr, services.ChargenPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { got.Write(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(2 * time.Second)
		conn.Close()
		received := got.Len()
		if received < 1000 {
			t.Fatalf("chargen produced only %d bytes in 2s", received)
		}
		// The pattern: 74-byte CRLF lines of printable ASCII, each line
		// rotated one character from the previous.
		lines := bytes.Split(got.Bytes(), []byte("\r\n"))
		if len(lines) < 3 {
			t.Fatal("no line structure")
		}
		for _, l := range lines[:3] {
			if len(l) != 72 {
				t.Fatalf("line length %d, want 72", len(l))
			}
			for _, ch := range l {
				if ch < 32 || ch > 126 {
					t.Fatalf("non-printable %#02x in chargen output", ch)
				}
			}
		}
		if lines[1][0] != lines[0][1] {
			t.Fatal("pattern does not rotate")
		}
		// The stream must stop growing soon after the close.
		s.Sleep(5 * time.Second)
		if got.Len() > received+(64<<10) {
			t.Fatalf("chargen kept streaming after close: %d -> %d", received, got.Len())
		}
	})
}

func TestDaytimeSendsOneLineAndCloses(t *testing.T) {
	withServer(t, func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server) {
		s.Sleep(1234 * time.Millisecond) // give daytime something to say
		var got bytes.Buffer
		peerClosed := false
		_, err := net.Host(0).TCP.Open(net.Host(1).Addr, services.DaytimePort, foxnet.Handler{
			Data:       func(c *foxnet.Conn, d []byte) { got.Write(d) },
			PeerClosed: func(c *foxnet.Conn) { peerClosed = true },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(time.Second)
		if !strings.Contains(got.String(), "virtual day 0") || !strings.HasSuffix(got.String(), "\r\n") {
			t.Fatalf("daytime said %q", got.String())
		}
		if !peerClosed {
			t.Fatal("daytime did not close after its line")
		}
		if sv.Stats().DaytimeConns != 1 {
			t.Fatalf("DaytimeConns = %d", sv.Stats().DaytimeConns)
		}
	})
}

func TestAllServicesConcurrently(t *testing.T) {
	withServer(t, func(s *foxnet.Scheduler, net *foxnet.Network, sv *services.Server) {
		client := net.Host(0).TCP
		addr := net.Host(1).Addr

		var echoGot bytes.Buffer
		echo, err := client.Open(addr, services.EchoPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { echoGot.Write(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		discard, err := client.Open(addr, services.DiscardPort, foxnet.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		chargenBytes := 0
		chargen, err := client.Open(addr, services.ChargenPort, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { chargenBytes += len(d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Fork("echo-w", func() { echo.Write([]byte("interleaved")) })
		s.Fork("discard-w", func() { discard.Write(make([]byte, 10_000)) })
		s.Sleep(5 * time.Second)
		chargen.Close()
		if echoGot.String() != "interleaved" {
			t.Fatalf("echo got %q", echoGot.String())
		}
		if sv.Stats().DiscardBytes != 10_000 {
			t.Fatalf("discard %d", sv.Stats().DiscardBytes)
		}
		if chargenBytes == 0 {
			t.Fatal("chargen silent")
		}
		if sv.Stats().Conns < 3 {
			t.Fatalf("Conns = %d", sv.Stats().Conns)
		}
	})
}

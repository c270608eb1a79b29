// Package services implements the classic inetd "small servers" of the
// paper's era — Echo (RFC 862), Discard (RFC 863), Character Generator
// (RFC 864), and Daytime (RFC 867) — over the structured TCP. They are
// the application layer a 1994 stack shipped with, and they double as
// live exercisers: echo drives bidirectional flow, discard drives the
// receive path flat out, chargen drives the send path against flow
// control, and daytime exercises the server-initiated-close pattern.
package services

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
)

// Standard port numbers.
const (
	EchoPort    = 7
	DiscardPort = 9
	DaytimePort = 13
	ChargenPort = 19
)

// Stats counts service activity across all connections.
type Stats struct {
	EchoBytes    uint64
	DiscardBytes uint64
	ChargenBytes uint64
	DaytimeConns uint64
	Conns        uint64
}

// Server runs any subset of the small services on one TCP endpoint.
type Server struct {
	t     *tcp.TCP
	s     *sim.Scheduler
	stats Stats
}

// New returns a server on endpoint t.
func New(s *sim.Scheduler, t *tcp.TCP) *Server {
	return &Server{t: t, s: s}
}

// Stats returns a snapshot of the counters.
func (sv *Server) Stats() Stats { return sv.stats }

// StartEcho serves RFC 862: every byte received is sent back.
func (sv *Server) StartEcho() error {
	_, err := sv.t.Listen(EchoPort, func(c *tcp.Conn) tcp.Handler {
		sv.stats.Conns++
		return tcp.Handler{
			Data: func(c *tcp.Conn, d []byte) {
				sv.stats.EchoBytes += uint64(len(d))
				c.Write(append([]byte(nil), d...)) //foxvet:boundary-copy echo: Data only borrows d, and Write queues by reference until the window admits the bytes
			},
			PeerClosed: func(c *tcp.Conn) { c.Shutdown() },
		}
	})
	return err
}

// StartDiscard serves RFC 863: bytes disappear.
func (sv *Server) StartDiscard() error {
	_, err := sv.t.Listen(DiscardPort, func(c *tcp.Conn) tcp.Handler {
		sv.stats.Conns++
		return tcp.Handler{
			Data: func(c *tcp.Conn, d []byte) {
				sv.stats.DiscardBytes += uint64(len(d))
			},
			PeerClosed: func(c *tcp.Conn) { c.Shutdown() },
		}
	})
	return err
}

// chargenLine returns the classic 72-character rotating pattern line n.
func chargenLine(n int) []byte {
	const first, span = 32, 95 // printable ASCII
	line := make([]byte, 74)
	for i := 0; i < 72; i++ {
		line[i] = byte(first + (n+i)%span)
	}
	line[72], line[73] = '\r', '\n'
	return line
}

// StartChargen serves RFC 864: a connection receives the rotating
// pattern as fast as flow control admits, until the peer closes.
func (sv *Server) StartChargen() error {
	_, err := sv.t.Listen(ChargenPort, func(c *tcp.Conn) tcp.Handler {
		sv.stats.Conns++
		closed := false
		h := tcp.Handler{
			PeerClosed: func(c *tcp.Conn) { closed = true; c.Shutdown() },
			Error:      func(c *tcp.Conn, err error) { closed = true },
		}
		h.Established = func(c *tcp.Conn) {
			sv.s.Fork("chargen", func() {
				for n := 0; !closed; n++ {
					line := chargenLine(n)
					if err := c.Write(line); err != nil {
						return
					}
					sv.stats.ChargenBytes += uint64(len(line))
				}
			})
		}
		return h
	})
	return err
}

// StartDaytime serves RFC 867: one human-readable timestamp (virtual
// time, in this world), then the server closes.
func (sv *Server) StartDaytime() error {
	_, err := sv.t.Listen(DaytimePort, func(c *tcp.Conn) tcp.Handler {
		sv.stats.Conns++
		sv.stats.DaytimeConns++
		return tcp.Handler{
			Established: func(c *tcp.Conn) {
				now := time.Duration(sv.s.Now())
				c.Write([]byte(fmt.Sprintf("virtual day 0, %v since boot\r\n", now.Round(time.Millisecond))))
				c.Shutdown()
			},
		}
	})
	return err
}

// StartAll starts every service, returning the first error.
func (sv *Server) StartAll() error {
	for _, f := range []func() error{sv.StartEcho, sv.StartDiscard, sv.StartChargen, sv.StartDaytime} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

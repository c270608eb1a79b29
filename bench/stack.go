package main

import (
	"time"

	"repro/foxnet"
	"repro/internal/baseline"
	"repro/internal/ip"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// newScheduler returns the scheduler every run uses: no CPU charging, so
// the virtual timeline and every counter depend on the workload and the
// seed alone.
func newScheduler() *sim.Scheduler { return sim.New(sim.Config{ChargeCPU: false}) }

// tcpConfig is the Fox Net configuration of a workload: the defaults
// with the workload's window, and the 5 s MSL internal/experiments uses
// so TIME-WAIT state turns over inside a run.
func tcpConfig(sp spec) tcp.Config {
	return tcp.Config{InitialWindow: sp.window, MSL: 5 * time.Second}
}

// assemble builds the two hosts of a workload on the default 10 Mb/s
// wire. Host 0 serves, host 1 runs the clients. The seed drives the
// wire's loss draws and, through cableJitter, the propagation delay.
func assemble(s *sim.Scheduler, sp spec, seed uint64) *foxnet.Network {
	wcfg := wire.Config{Loss: sp.loss, Seed: seed, Propagation: 10*time.Microsecond + cableJitter(seed)}
	hc := &foxnet.HostConfig{TCP: tcpConfig(sp)}
	return foxnet.NewNetwork(s, wcfg, 2, hc, hc)
}

// cableJitter lengthens the default 10 µs cable by 0–199 ns according
// to the seed. On a clean wire nothing else in a run depends on the
// seed, so without it every seed would replay one virtual timeline and
// "holds on another seed" would be vacuous for the virtual metrics; with
// it each seed shifts every arrival against the stack's timers by a few
// parts in ten thousand, and one seed still repeats bit for bit.
func cableJitter(seed uint64) time.Duration {
	return time.Duration((seed*0x9e3779b97f4a7c15>>32)%200) * time.Nanosecond
}

// foxEndpoint adapts a Fox Net TCP to the load generator. With a tracer
// it also records the spans that wrap connection calls and the Data
// upcall; without one the calls go straight through.
type foxEndpoint struct {
	t  *tcp.TCP
	tr *tracer
}

func (e foxEndpoint) handler(up upcalls) tcp.Handler {
	data := func(_ *tcp.Conn, d []byte) { up.data(d) }
	if e.tr != nil {
		data = func(_ *tcp.Conn, d []byte) {
			sp := e.tr.begin(spUpcall, -1)
			up.data(d)
			e.tr.end(sp)
		}
	}
	return tcp.Handler{
		Data:       data,
		PeerClosed: func(*tcp.Conn) { up.closed() },
		Error:      func(_ *tcp.Conn, err error) { up.failed(err) },
	}
}

func (e foxEndpoint) wrap(c *tcp.Conn) conn {
	if e.tr == nil {
		return c
	}
	return tracedConn{c, e.tr}
}

func (e foxEndpoint) listen(port uint16, accept func(c conn) upcalls) error {
	_, err := e.t.Listen(port, func(c *tcp.Conn) tcp.Handler { return e.handler(accept(e.wrap(c))) })
	return err
}

func (e foxEndpoint) open(remote protocol.Address, port uint16, up upcalls) (conn, error) {
	sp := e.tr.begin(spOpen, -1)
	c, err := e.t.Open(remote, port, e.handler(up))
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return e.wrap(c), nil
}

// tracedConn brackets Write and Close with spans.
type tracedConn struct {
	c  *tcp.Conn
	tr *tracer
}

func (c tracedConn) Write(data []byte) error {
	sp := c.tr.begin(spWrite, -1)
	err := c.c.Write(data)
	c.tr.end(sp)
	return err
}

func (c tracedConn) Close() error {
	sp := c.tr.begin(spClose, -1)
	err := c.c.Close()
	c.tr.end(sp)
	return err
}

// foxEndpoints returns the two hosts' TCPs for a run. Untraced, they
// are the ones foxnet assembled. Traced, each host gets a second TCP
// functor instance over the shim, which takes over IP protocol 6 from
// the first.
func foxEndpoints(s *sim.Scheduler, net *foxnet.Network, sp spec, tr *tracer) [2]foxEndpoint {
	var eps [2]foxEndpoint
	for i, h := range net.Hosts {
		t := h.TCP
		if tr != nil {
			t = tcp.New(s, shim{h.IP.Network(ip.ProtoTCP), tr}, tcpConfig(sp))
		}
		eps[i] = foxEndpoint{t, tr}
	}
	return eps
}

// xkEndpoint adapts the x-kernel-style baseline TCP.
type xkEndpoint struct{ t *baseline.TCP }

func xkHandler(up upcalls) baseline.Handler {
	return baseline.Handler{
		Data:       func(_ *baseline.Conn, d []byte) { up.data(d) },
		PeerClosed: func(*baseline.Conn) { up.closed() },
		Error:      func(_ *baseline.Conn, err error) { up.failed(err) },
	}
}

func (e xkEndpoint) listen(port uint16, accept func(c conn) upcalls) error {
	e.t.Listen(port, func(c *baseline.Conn) baseline.Handler { return xkHandler(accept(c)) })
	return nil
}

func (e xkEndpoint) open(remote protocol.Address, port uint16, up upcalls) (conn, error) {
	c, err := e.t.Open(remote, port, xkHandler(up))
	if err != nil {
		return nil, err
	}
	return c, nil
}

// xkEndpoints replaces both hosts' TCP with the baseline, as
// internal/experiments does for the paper's comparison.
func xkEndpoints(s *sim.Scheduler, net *foxnet.Network, sp spec) [2]xkEndpoint {
	var eps [2]xkEndpoint
	for i, h := range net.Hosts {
		cfg := baseline.Config{InitialWindow: sp.window, MSL: 5 * time.Second}
		eps[i] = xkEndpoint{baseline.New(s, h.IP.Network(ip.ProtoTCP), cfg)}
	}
	return eps
}

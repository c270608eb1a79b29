package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/basis"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// A transaction is the paper's Table 1 exchange: the client writes a
// 4-byte request naming a reply size, the server writes that many bytes
// of a position-dependent pattern, the client checks every byte, and the
// transaction ends at the last one (after Close, when the workload opens
// a connection per transaction). The load is closed-loop: a client
// issues its next transaction when the previous one completes.

const (
	serverPort = 5001
	// maxTxnVirtual is the virtual time past which a completed
	// transaction still counts as failed.
	maxTxnVirtual = 120 * time.Second
	// phaseStep moves the pattern window from one request of a connection
	// to the next, so a reply that belongs to another request cannot pass.
	phaseStep = 4099
	phaseMod  = 1 << 16
)

// conn is the part of a connection the load generator uses; *tcp.Conn
// and *baseline.Conn both provide it.
type conn interface {
	Write(data []byte) error
	Close() error
}

// upcalls are the events a connection's user hears.
type upcalls struct {
	data   func(d []byte)
	closed func() // the peer sent FIN
	failed func(err error)
}

// endpoint is one host's TCP as the load generator sees it, so the same
// transactions run over Fox Net, over Fox Net behind the tracing shim,
// and over the x-kernel-style baseline.
type endpoint interface {
	listen(port uint16, accept func(c conn) upcalls) error
	open(remote protocol.Address, port uint16, up upcalls) (conn, error)
}

// makePattern returns the reply source for a seed: replies are windows
// of it, so every byte a client receives is predictable from the seed,
// the request's serial on its connection and the byte's position.
func makePattern(seed uint64, maxReply int) []byte {
	r := basis.NewRand(seed ^ 0x7061747465726e) // "pattern"
	pat := make([]byte, maxReply+phaseMod)
	for i := 0; i+8 <= len(pat); i += 8 {
		binary.LittleEndian.PutUint64(pat[i:], r.Uint64())
	}
	return pat
}

// phase is where in the pattern the reply to a connection's serial-th
// request starts.
func phase(serial int) int { return serial * phaseStep % phaseMod }

// verifier checks one reply as it arrives in pieces.
type verifier struct {
	expect []byte // the reply, a window of the pattern
	got    int
	bad    bool // a byte differed or more arrived than was asked for
}

func (v *verifier) feed(d []byte) {
	rest := v.expect[min(v.got, len(v.expect)):]
	if len(d) > len(rest) || !bytes.Equal(d, rest[:len(d)]) {
		v.bad = true
	}
	v.got += len(d)
}

func (v *verifier) complete() bool { return !v.bad && v.got == len(v.expect) }

// done reports that no more bytes are wanted: the reply is all there, or
// it already failed.
func (v *verifier) done() bool { return v.bad || v.got >= len(v.expect) }

var errPeerClosed = errors.New("bench: peer closed before the reply was complete")

// gen drives one workload's transactions over a pair of endpoints.
type gen struct {
	s       *sim.Scheduler
	sp      spec
	cli     endpoint
	srvAddr protocol.Address
	pat     []byte
	tr      *tracer

	// Coordinator and clients hand rounds of work over these: run sets
	// remaining and wakes the clients, the last client to finish signals
	// idle.
	remaining int
	active    int
	quit      bool
	wake      *sim.Cond
	idle      *sim.Cond

	// Server side: upcalls queue jobs, a fixed pool of writer coroutines
	// performs them, so no coroutine is forked per request and the forks
	// and switches the scheduler counts are the stack's own.
	jobs    basis.FIFO[job]
	jobCond *sim.Cond

	nextTxn   int // transactions attempted so far
	failed    int
	connErrs  int    // Error upcalls and failed connection calls, both sides
	okBytes   int64  // reply bytes of verified transactions
	digest    uint64 // of the delivery sequence, see client.onData
	keepLat   bool
	lat       []sim.Duration // virtual latency per transaction while keepLat
	connectUs float64        // wall time of the first Open, ARP included
}

type job struct {
	c     conn
	reply []byte // nil: close the connection
}

func newGen(s *sim.Scheduler, sp spec, srv, cli endpoint, srvAddr protocol.Address, pat []byte, tr *tracer) (*gen, error) {
	g := &gen{s: s, sp: sp, cli: cli, srvAddr: srvAddr, pat: pat, tr: tr,
		wake: sim.NewCond(s), idle: sim.NewCond(s), jobCond: sim.NewCond(s)}
	if err := srv.listen(serverPort, g.accept); err != nil {
		return nil, err
	}
	// Each client has at most one reply and one close outstanding.
	for i := 0; i < 2*sp.clients; i++ {
		s.Fork("bench-writer", g.writer)
	}
	g.active = sp.clients
	for i := 0; i < sp.clients; i++ {
		cl := &client{g: g, cond: sim.NewCond(s)}
		s.Fork("bench-client", cl.loop)
	}
	g.awaitIdle()
	return g, nil
}

// run performs n transactions, spread over the clients, and returns
// when the last has completed.
func (g *gen) run(n int) {
	g.remaining = n
	g.active = g.sp.clients
	g.wake.Broadcast()
	g.awaitIdle()
}

// stop closes the clients' connections and ends their coroutines.
func (g *gen) stop() {
	g.quit = true
	g.run(0)
}

func (g *gen) awaitIdle() {
	for g.active > 0 {
		g.idle.Wait()
	}
}

// accept is the server's per-connection handler factory: it reassembles
// 4-byte requests and queues a reply job for each.
func (g *gen) accept(c conn) upcalls {
	var req [4]byte
	have, serial := 0, 0
	return upcalls{
		data: func(d []byte) {
			for len(d) > 0 {
				k := copy(req[have:], d)
				have, d = have+k, d[k:]
				if have < len(req) {
					return
				}
				have = 0
				n := int(binary.BigEndian.Uint32(req[:]))
				if n > len(g.pat)-phaseMod {
					g.connErrs++ // not a request this benchmark sends
					return
				}
				p := phase(serial)
				serial++
				g.jobs.Enqueue(job{c: c, reply: g.pat[p : p+n]})
				g.jobCond.Signal()
			}
		},
		closed: func() {
			g.jobs.Enqueue(job{c: c})
			g.jobCond.Signal()
		},
		failed: func(error) { g.connErrs++ },
	}
}

func (g *gen) writer() {
	for {
		for g.jobs.Empty() {
			g.jobCond.Wait()
		}
		j, _ := g.jobs.Dequeue()
		var err error
		if j.reply != nil {
			err = j.c.Write(j.reply)
		} else {
			err = j.c.Close()
		}
		if err != nil {
			g.connErrs++
		}
	}
}

// client is one closed-loop requester.
type client struct {
	g      *gen
	cond   *sim.Cond
	c      conn // nil between connections
	epoch  int  // connections opened so far; upcalls of earlier ones are stale
	serial int  // requests sent on c
	v      verifier
	err    error    // why the current connection is unusable
	doneAt sim.Time // virtual time the reply's last byte arrived
}

func (cl *client) loop() {
	g := cl.g
	for {
		for g.remaining == 0 && !g.quit {
			g.active--
			if g.active == 0 {
				g.idle.Signal()
			}
			g.wake.Wait()
		}
		if g.quit {
			break
		}
		g.remaining--
		cl.transact()
	}
	cl.hangUp()
	g.active--
	if g.active == 0 {
		g.idle.Signal()
	}
}

func (cl *client) transact() {
	g := cl.g
	id := g.nextTxn
	g.nextTxn++
	sp := g.tr.begin(spTxn, int32(id))
	start := g.s.Now()
	ok := cl.exchange()
	end := cl.doneAt
	if g.sp.perConn {
		ok = cl.hangUp() && ok
		end = g.s.Now()
	}
	g.tr.end(sp)
	lat := sim.Duration(end - start)
	if !ok || lat > maxTxnVirtual {
		g.failed++
		cl.hangUp()         // a failed exchange leaves the stream out of step
		lat = maxTxnVirtual // so a failure is a miss of any latency percentile
	} else {
		g.okBytes += int64(g.sp.reply)
	}
	if g.keepLat {
		g.lat = append(g.lat, lat)
	}
}

// exchange sends one request and waits for its verified reply.
func (cl *client) exchange() bool {
	g := cl.g
	if cl.c == nil && !cl.connect() {
		return false
	}
	p := phase(cl.serial)
	cl.serial++
	cl.v = verifier{expect: g.pat[p : p+g.sp.reply]}
	var req [4]byte
	binary.BigEndian.PutUint32(req[:], uint32(g.sp.reply))
	if err := cl.c.Write(req[:]); err != nil {
		g.connErrs++
		return false
	}
	for !cl.v.done() && cl.err == nil {
		cl.cond.Wait()
	}
	return cl.v.complete()
}

func (cl *client) connect() bool {
	g := cl.g
	cl.err, cl.serial = nil, 0
	cl.epoch++
	epoch := cl.epoch
	// A connection the client has left still reports its peer's FIN, and
	// that must not fail the transaction on the connection after it.
	current := func(err error) {
		if cl.epoch == epoch {
			cl.fail(err)
		}
	}
	t0 := time.Now()
	c, err := g.cli.open(g.srvAddr, serverPort, upcalls{
		data:   cl.onData,
		closed: func() { current(errPeerClosed) },
		failed: func(err error) { g.connErrs++; current(err) },
	})
	if g.connectUs == 0 {
		g.connectUs = float64(time.Since(t0)) / 1e3
	}
	if err != nil {
		g.connErrs++
		return false
	}
	cl.c = c
	return true
}

// hangUp closes the client's connection, if it has one, and reports
// whether that went cleanly.
func (cl *client) hangUp() bool {
	if cl.c == nil {
		return true
	}
	err := cl.c.Close()
	cl.c = nil
	if err != nil {
		cl.g.connErrs++
	}
	return err == nil
}

func (cl *client) onData(d []byte) {
	g := cl.g
	cl.v.feed(d)
	// The digest covers how the stream was delivered — each upcall's
	// length and leading bytes — for a few nanoseconds per upcall; feed
	// has already compared every byte with the pattern.
	var head [8]byte
	copy(head[:], d)
	g.digest = (g.digest ^ uint64(len(d)) ^ binary.LittleEndian.Uint64(head[:])) * 0x100000001b3
	if cl.v.done() {
		cl.doneAt = g.s.Now()
		cl.cond.Signal()
	}
}

func (cl *client) fail(err error) {
	if cl.err == nil {
		cl.err = err
	}
	cl.cond.Signal()
}

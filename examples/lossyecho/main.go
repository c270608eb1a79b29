// Lossyecho runs an echo service over a deliberately bad wire — 5% loss,
// duplication, and reordering jitter — and reports how the Resend
// module's machinery (Karn/Jacobson RTT estimation, exponential backoff,
// fast retransmit, out-of-order reassembly) carries every byte through
// intact. Faults are driven by a deterministic seed: the same command
// line always observes the same packet fates.
//
//	go run ./examples/lossyecho
//	go run ./examples/lossyecho -loss 0.15 -seed 9
//	go run ./examples/lossyecho -flight /tmp/le
//
// With -flight each host journals every action — including the
// retransmissions and backoffs the bad wire provokes — to
// <dir>/host{1,2}.fjl for `foxreplay` to audit or graph.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"time"

	"repro/foxnet"
)

func main() {
	loss := flag.Float64("loss", 0.05, "frame loss probability")
	dup := flag.Float64("dup", 0.02, "frame duplication probability")
	jitter := flag.Float64("jitter", 0.10, "frame reordering probability")
	seed := flag.Uint64("seed", 1, "fault seed")
	size := flag.Int("bytes", 50_000, "bytes to echo")
	flightDir := flag.String("flight", "", "journal each host's actions into this directory for foxreplay")
	flag.Parse()

	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	s.Run(func() {
		hc := &foxnet.HostConfig{FlightDir: *flightDir}
		net := foxnet.NewNetwork(s, foxnet.WireConfig{
			Loss:      *loss,
			Duplicate: *dup,
			Jitter:    *jitter,
			JitterMax: 3 * time.Millisecond,
			Seed:      *seed,
		}, 2, hc, hc)
		client, server := net.Host(0), net.Host(1)

		server.TCP.Listen(7, func(c *foxnet.Conn) foxnet.Handler {
			return foxnet.Handler{Data: func(c *foxnet.Conn, d []byte) {
				c.Write(append([]byte(nil), d...)) //foxvet:boundary-copy echo: Data only borrows d, and Write queues by reference until the window admits the bytes
			}}
		})

		sent := make([]byte, *size)
		for i := range sent {
			sent[i] = byte(i*7 + i/251)
		}
		var echoed bytes.Buffer
		conn, err := client.TCP.Open(server.Addr, 7, foxnet.Handler{
			Data: func(c *foxnet.Conn, d []byte) { echoed.Write(d) },
		})
		if err != nil {
			fmt.Println("open failed (the wire may be too lossy):", err)
			return
		}
		start := s.Now()
		s.Fork("writer", func() { conn.Write(sent) })
		for echoed.Len() < len(sent) {
			s.Sleep(100 * time.Millisecond)
			if time.Duration(s.Now()-start) > 10*time.Minute {
				break
			}
		}
		elapsed := time.Duration(s.Now() - start).Round(time.Millisecond)

		intact := bytes.Equal(echoed.Bytes(), sent)
		fmt.Printf("echoed %d/%d bytes in %v of virtual time; intact: %v\n",
			echoed.Len(), len(sent), elapsed, intact)

		w := net.Segment.Stats()
		cs, ss := client.TCP.Stats(), server.TCP.Stats()
		fmt.Printf("wire: %d frames offered, %d lost, %d duplicated, %d reordered\n",
			w.Sent, w.Lost, w.Duplicated, w.Jittered)
		fmt.Printf("client tcp: %d segs sent, %d retransmits, %d dup acks seen\n",
			cs.SegsSent, cs.Retransmits, cs.DupAcksSeen)
		fmt.Printf("server tcp: %d segs sent, %d retransmits, %d out-of-order held\n",
			ss.SegsSent, ss.Retransmits, ss.OutOfOrder)
	})
}

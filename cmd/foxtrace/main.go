// Command foxtrace runs a scenario on the simulated stack and prints the
// do_traces output of every layer — a tcpdump for the virtual network,
// with the quasi-synchronous action queue visible per connection. It is
// the paper's do_prints/do_traces facility packaged as a tool. Every
// point event (state transitions, retransmissions, resets) is a trace
// line as it happens; foxstat lists them per host from the journal.
//
//	foxtrace                       three-way handshake, small transfer, close
//	foxtrace -scenario lossy       retransmission and recovery on a 10% lossy wire
//	foxtrace -scenario special     the Fig. 3 TCP-over-Ethernet stack
//	foxtrace -scenario ping        ARP resolution and ICMP echo
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/foxnet"
	"repro/internal/decode"
	"repro/internal/pcap"
	"repro/internal/seqplot"
)

func main() {
	scenario := flag.String("scenario", "transfer", "transfer | lossy | special | ping")
	bytes := flag.Int("bytes", 3000, "payload size for transfer scenarios")
	raw := flag.Bool("raw", false, "decode raw frames off the wire instead of layer traces")
	pcapPath := flag.String("pcap", "", "also write the raw frames to a libpcap file (open it in Wireshark)")
	svgPath := flag.String("svg", "", "also write a tcptrace-style sequence-time diagram (SVG)")
	flag.Parse()

	switch *scenario {
	case "transfer", "lossy", "special", "ping":
	default:
		fmt.Fprintln(os.Stderr, "unknown scenario:", *scenario)
		os.Exit(2)
	}

	// File creation and process exit stay on the OS side of the Run
	// boundary: the coroutine body must not block or terminate the
	// process out from under the scheduler (foxvet noblock).
	var pw *pcap.Writer
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			os.Exit(1)
		}
		defer f.Close()
		pw = pcap.NewWriter(f)
	}

	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	trace := foxnet.NewTracer("fox", os.Stdout, !*raw)
	var plot *seqplot.Collector

	s.Run(func() {
		wcfg := foxnet.WireConfig{}
		if *scenario == "lossy" {
			wcfg.Loss = 0.10
			wcfg.Seed = 7
		}
		net := foxnet.NewNetwork(s, wcfg, 2,
			&foxnet.HostConfig{Trace: trace},
			&foxnet.HostConfig{Trace: trace},
		)
		if *raw || pw != nil || *svgPath != "" {
			net.Tap(func(from string, data []byte) {
				if *raw {
					fmt.Printf("%s %-6s %s\n", s.Stamp(), from, decode.Frame(data))
				}
				if pw != nil {
					pw.WritePacket(s.Now(), data)
				}
				if plot != nil {
					plot.Tap(s.Now(), data)
				}
			})
		}
		a, b := net.Host(0), net.Host(1)

		switch *scenario {
		case "transfer", "lossy":
			b.TCP.Listen(80, func(c *foxnet.Conn) foxnet.Handler {
				return foxnet.Handler{
					Data:       func(c *foxnet.Conn, d []byte) {},
					PeerClosed: func(c *foxnet.Conn) { c.Shutdown() },
				}
			})
			conn, err := a.TCP.Open(b.Addr, 80, foxnet.Handler{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "open:", err)
				return
			}
			if *svgPath != "" {
				plot = seqplot.NewCollector(conn.LocalPort(), 80)
			}
			conn.Write(make([]byte, *bytes))
			conn.Close()
			s.Sleep(2 * time.Second)
		case "special":
			sa := a.TCPOverEthernet(s, foxnet.TCPConfig{Trace: trace.Sub("special-a")})
			sb := b.TCPOverEthernet(s, foxnet.TCPConfig{Trace: trace.Sub("special-b")})
			sb.Listen(99, func(c *foxnet.Conn) foxnet.Handler { return foxnet.Handler{} })
			conn, err := sa.Open(b.MAC, 99, foxnet.Handler{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "open:", err)
				return
			}
			conn.Write(make([]byte, *bytes))
			conn.Close()
			s.Sleep(time.Second)
		case "ping":
			rtt, ok := a.Ping(s, b.Addr, []byte("trace me"))
			fmt.Printf("ping: ok=%v rtt=%v\n", ok, rtt)
		}
	})

	if pw != nil {
		fmt.Fprintf(os.Stderr, "wrote %d packets to %s\n", pw.Packets(), *pcapPath)
	}
	if plot != nil && *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svg:", err)
		} else {
			if err := plot.WriteSVG(f, 0, 0); err == nil {
				fmt.Fprintf(os.Stderr, "wrote %d flow events to %s\n", len(plot.Events()), *svgPath)
			}
			f.Close()
		}
	}
}

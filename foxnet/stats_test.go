package foxnet_test

import (
	"bytes"
	"testing"
	"time"

	"repro/foxnet"
	"repro/internal/flight"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// runTransfer performs the canonical scenario — handshake, n-byte
// transfer from host 0 to host 1, active close — and returns the network
// plus both connection endpoints and each host's point events, read from
// its flight journal. The scheduler charges no CPU, so every counter
// below is exactly reproducible.
func runTransfer(t *testing.T, wcfg foxnet.WireConfig, n int, settle time.Duration) (*foxnet.Network, *foxnet.Conn, *foxnet.Conn, int, [2][]flight.Record) {
	t.Helper()
	s := foxnet.NewScheduler(foxnet.SchedulerConfig{})
	var net *foxnet.Network
	var client, server *foxnet.Conn
	received := 0
	var journals [2]bytes.Buffer
	hcs := [2]*foxnet.HostConfig{}
	for i := range hcs {
		hcs[i] = &foxnet.HostConfig{TCP: foxnet.TCPConfig{Flight: foxnet.NewFlightRecorder(&journals[i])}}
	}
	s.Run(func() {
		net = foxnet.NewNetwork(s, wcfg, 2, hcs[:]...)
		a, b := net.Host(0), net.Host(1)
		b.TCP.Listen(80, func(c *foxnet.Conn) foxnet.Handler {
			server = c
			return foxnet.Handler{
				Data:       func(c *foxnet.Conn, d []byte) { received += len(d) },
				PeerClosed: func(c *foxnet.Conn) { c.Shutdown() },
			}
		})
		conn, err := a.TCP.Open(b.Addr, 80, foxnet.Handler{})
		if err != nil {
			t.Fatal(err)
		}
		client = conn
		conn.Write(make([]byte, n))
		conn.Close()
		s.Sleep(settle)
	})
	var evs [2][]flight.Record
	for i := range journals {
		recs, err := flight.ReadAll(&journals[i])
		if err != nil {
			t.Fatalf("host%d journal: %v", i+1, err)
		}
		evs[i] = flight.Events(recs)
	}
	return net, client, server, received, evs
}

// expectCounters asserts a set of exact snapshot values.
func expectCounters(t *testing.T, host string, snap stats.Snapshot, want map[string]float64) {
	t.Helper()
	for name, v := range want {
		got, ok := snap.Get(name)
		if !ok {
			t.Errorf("%s: counter %s missing from snapshot", host, name)
			continue
		}
		if got != v {
			t.Errorf("%s: %s = %v, want %v", host, name, got, v)
		}
	}
}

// The lossless canonical transfer produces an exactly known segment
// exchange: SYN, SYN-ACK, ACK; three data segments (3000 bytes at MSS
// 1460) acknowledged by the receiver; FIN/ACK close in both directions.
// These numbers are the RFC 2012 accounting for that exchange and pin
// down every layer's MIB arithmetic at once.
func TestMIBCountersLosslessTransfer(t *testing.T) {
	net, client, server, received, evs := runTransfer(t, foxnet.WireConfig{}, 3000, 2*time.Second)
	if received != 3000 {
		t.Fatalf("received %d bytes, want 3000", received)
	}

	a := net.Host(0).Stats.Snapshot()
	b := net.Host(1).Stats.Snapshot()
	expectCounters(t, "host1", a, map[string]float64{
		"tcp.ActiveOpens":   1,
		"tcp.PassiveOpens":  0,
		"tcp.AttemptFails":  0,
		"tcp.EstabResets":   0,
		"tcp.CurrEstab":     0,
		"tcp.CurrEstabHigh": 1,
		"tcp.InSegs":        3,
		"tcp.OutSegs":       7,
		"tcp.RetransSegs":   0,
		"tcp.InErrs":        0,
		"tcp.OutRsts":       0,
		"tcp.OutDataBytes":  3000,
		"tcp.InDataBytes":   0,
		"tcp.InNoConns":     0,
		// The user-timeout abort counter is in the registry, where
		// foxstat and /metrics can see it.
		"hard.ProgressTimeouts": 0,
		"ip.InReceives":         3,
		"ip.InDelivers":         3,
		"ip.OutRequests":        7,
		"ip.InHdrErrors":        0,
		"arp.OutRequests":       1,
		"arp.InReplies":         1,
		"arp.Learned":           1,
	})
	expectCounters(t, "host2", b, map[string]float64{
		"tcp.ActiveOpens":   0,
		"tcp.PassiveOpens":  1,
		"tcp.CurrEstab":     0,
		"tcp.CurrEstabHigh": 1,
		"tcp.InSegs":        7,
		"tcp.OutSegs":       3,
		"tcp.RetransSegs":   0,
		"tcp.InErrs":        0,
		"tcp.InDataBytes":   3000,
		"tcp.Accepts":       1,
		"ip.InReceives":     7,
		"ip.OutRequests":    3,
		"arp.InRequests":    1,
		"arp.OutReplies":    1,
		"arp.Learned":       1,
	})

	// tcp.Stats is a view over the same counter set, not a second one.
	if st := net.Host(0).TCP.Stats(); st.SegsSent != 7 || st.SegsReceived != 3 || st.BytesSent != 3000 ||
		st.ConnsOpened != 1 || st.FastPathIn != 1 || st.SlowPathIn != 1 {
		t.Errorf("host1 tcp.Stats view = %+v, disagrees with the MIB", st)
	}

	// Per-connection stats out of the TCB agree with the MIB totals.
	cs, ss := client.Stats(), server.Stats()
	if cs.BytesOut != 3000 || cs.SegsOut != 7 || cs.SegsIn != 3 {
		t.Errorf("client conn stats = out %d B/%d segs, in %d segs", cs.BytesOut, cs.SegsOut, cs.SegsIn)
	}
	if ss.BytesIn != 3000 || ss.SegsIn != 7 || ss.SegsOut != 3 {
		t.Errorf("server conn stats = in %d B/%d segs, out %d segs", ss.BytesIn, ss.SegsIn, ss.SegsOut)
	}
	if cs.SRTT <= 0 || cs.RTO <= 0 {
		t.Errorf("client srtt/rto not measured: %v / %v", cs.SRTT, cs.RTO)
	}

	// Each host's journal carries the connection's state transitions; the
	// client walked the active-close path, the server the passive one.
	for i, want := range []struct {
		conn  *foxnet.Conn
		first string
		last  string
		count int
	}{
		{client, "Closed -> Syn_Sent", "Fin_Wait_2 -> Time_Wait", 5},
		{server, "Closed -> Listen", "Last_Ack -> Closed", 6},
	} {
		var trans []string
		for _, e := range evs[i] {
			if e.EvKind == tcp.EventState && e.Conn == want.conn.Name() {
				trans = append(trans, tcp.DescribeEvent(e.EvKind, e.EvA, e.EvB))
			}
		}
		if len(trans) != want.count {
			t.Fatalf("host%d: %d state transitions, want %d", i+1, len(trans), want.count)
		}
		if trans[0] != want.first || trans[len(trans)-1] != want.last {
			t.Errorf("host%d transitions ran %q .. %q, want %q .. %q",
				i+1, trans[0], trans[len(trans)-1], want.first, want.last)
		}
	}
}

// On the 10%-lossy wire (seed 7, the foxtrace lossy scenario) the
// transfer still completes, and the loss shows up in the RFC 2012 split:
// RetransSegs counts the re-emissions, OutSegs only first transmissions.
func TestMIBCountersLossyTransfer(t *testing.T) {
	net, client, _, received, evs := runTransfer(t,
		foxnet.WireConfig{Loss: 0.10, Seed: 7}, 64000, 30*time.Second)
	if received != 64000 {
		t.Fatalf("received %d bytes, want 64000", received)
	}

	snap := net.Host(0).Stats.Snapshot()
	rex, _ := snap.Get("tcp.RetransSegs")
	if rex == 0 {
		t.Error("lossy transfer recorded no retransmissions")
	}
	out, _ := snap.Get("tcp.OutSegs")
	cs := client.Stats()
	if cs.Retransmits != uint64(rex) {
		t.Errorf("conn retransmits %d != tcp.RetransSegs %v", cs.Retransmits, rex)
	}
	if cs.SegsOut != uint64(out) {
		t.Errorf("conn segs out %d != tcp.OutSegs %v", cs.SegsOut, out)
	}

	// The journal saw the recovery machinery at work.
	var rexEvents int
	for _, e := range evs[0] {
		if e.EvKind == tcp.EventRexmit {
			rexEvents++
		}
	}
	if rexEvents == 0 {
		t.Error("no retransmit events in the journal")
	}
}

package main

// Smoke tests for the telemetry endpoints, exercised through httptest
// against a hand-populated plane and a finished run whose one host
// journal is written by a flight recorder — plus the mid-run state,
// before finish() is called.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/foxnet"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

const testConn = "10.0.0.2:80<->:1024"

func testServer(t *testing.T) *liveServer {
	t.Helper()
	tl := foxnet.NewTelemetry()
	tl.Action.Observe(120)
	tl.Action.Observe(480)
	tl.RTT.Observe(3_000_000)
	tl.Prof.Record(telemetry.ActProcessData, 200, 20)
	tl.Prof.Record(telemetry.ActSendSegment, 100, 10)
	srv := &liveServer{planes: []*foxnet.Telemetry{tl}, names: []string{"host1"}}

	var j bytes.Buffer
	fr := flight.NewRecorder(&j)
	fr.Hdr("10.0.0.1", 1500, []byte("{}"))
	fr.OpenConn(0, testConn, "active", "10.0.0.2", 80, 1024, false, false)
	fr.Beg(1_000_000, testConn, 1)
	d := flight.AppendDelta(nil, "cwnd", 0, 4096)
	fr.End(testConn, 1, flight.AppendDelta(d, "ssthresh", 0, 65535))
	fr.Beg(2_000_000, testConn, 2)
	fr.End(testConn, 2, flight.AppendDelta(nil, "cwnd", 4096, 5120))
	recs, err := flight.ReadAll(&j)
	if err != nil {
		t.Fatal(err)
	}
	srv.finish(&result{
		net:       &foxnet.Network{},
		substrate: foxnet.NewRegistry("net"),
		journals:  []hostJournal{newHostJournal("host1", recs)},
	})
	return srv
}

func get(t *testing.T, srv *liveServer, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestServeMetrics(t *testing.T) {
	code, body := get(t, testServer(t), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`fox_action_latency_ns{host="host1",quantile="0.99"}`,
		`fox_action_latency_ns_count{host="host1"} 2`,
		`fox_executor_actions_total{host="host1",action="Process_Data"} 1`,
		`fox_conn_cwnd_bytes{host="host1",conn="10.0.0.2:80<->:1024"} 5120`,
		`fox_conn_ssthresh_bytes{host="host1",conn="10.0.0.2:80<->:1024"} 65535`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServeConns(t *testing.T) {
	code, body := get(t, testServer(t), "/conns")
	if code != 200 {
		t.Fatalf("/conns status %d", code)
	}
	var rows []liveConnJSON
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/conns is not JSON: %v\n%s", err, body)
	}
	if len(rows) != 1 || rows[0].Conn != testConn || rows[0].TotalPoints != 2 {
		t.Fatalf("/conns rows = %+v", rows)
	}
	if rows[0].Last == nil || rows[0].Last.Cwnd != 5120 || rows[0].Last.At != 2_000_000 {
		t.Fatalf("/conns last point = %+v, want cwnd 5120 at 2ms", rows[0].Last)
	}
}

func TestServeSeries(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/series/" + testConn, "/series/0"} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("%s status %d", path, code)
		}
		var doc struct {
			Conn        string         `json:"conn"`
			TotalPoints int            `json:"total_points"`
			Points      []flight.Point `json:"points"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s is not JSON: %v", path, err)
		}
		if doc.TotalPoints != 2 || len(doc.Points) != 2 || doc.Points[1].Cwnd != 5120 {
			t.Fatalf("%s doc = %+v", path, doc)
		}
		// ssthresh first changed in the first point and holds in the second.
		if doc.Points[0].Ssthresh != 65535 || doc.Points[1].Ssthresh != 65535 {
			t.Fatalf("%s ssthresh = %d, %d, want 65535 twice", path, doc.Points[0].Ssthresh, doc.Points[1].Ssthresh)
		}
	}
	if code, _ := get(t, srv, "/series/nope"); code != 404 {
		t.Errorf("unknown series status %d, want 404", code)
	}
	code, body := get(t, srv, "/series/0?svg=1")
	if code != 200 || !strings.Contains(body, "<svg") {
		t.Errorf("svg render: status %d, body prefix %.60s", code, body)
	}
}

// Mid-run, the plane's histograms are live and everything read from the
// journals waits for the run to end.
func TestServeMidRun(t *testing.T) {
	tl := foxnet.NewTelemetry()
	tl.Action.Observe(120)
	srv := &liveServer{planes: []*foxnet.Telemetry{tl}, names: []string{"host1"}}
	code, body := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, `fox_action_latency_ns_count{host="host1"} 1`) || strings.Contains(body, "fox_conn_") {
		t.Errorf("mid-run /metrics: status %d\n%s", code, body)
	}
	for _, path := range []string{"/conns", "/series/0"} {
		if code, _ := get(t, srv, path); code != 503 {
			t.Errorf("mid-run %s status %d, want 503", path, code)
		}
	}
}

func TestServeProfile(t *testing.T) {
	code, body := get(t, testServer(t), "/profile")
	if code != 200 {
		t.Fatalf("/profile status %d", code)
	}
	var doc map[string]telemetry.ProfReport
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/profile is not JSON: %v", err)
	}
	rep, ok := doc["host1"]
	if !ok || len(rep.Actions) != 2 {
		t.Fatalf("/profile doc = %+v", doc)
	}
}

package main

// The exporter behind -serve, -watch, and -scrape. The HTTP handlers run
// on OS goroutines while the simulation owns the main goroutine, so
// everything they read mid-run must be atomic: the telemetry planes'
// histograms and profiles are built for exactly that. Everything else —
// registries, per-connection TCB stats, the substrate, and what the
// flight journals say (the connection series and the fox_conn_* gauges)
// — is plain memory the run produces, so handlers only touch it after
// the done flag is set; finish() stores the result before the
// atomic.Bool release-store, which is the happens-before edge the
// handlers' acquire-load pairs with.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/foxnet"
	"repro/internal/flight"
	"repro/internal/seqplot"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

type liveServer struct {
	planes []*foxnet.Telemetry
	names  []string // host label per plane, index-aligned

	done atomic.Bool
	res  *result // set by finish() before done; read by handlers only after done
}

// finish publishes the finished run to the handlers. Call it exactly
// once, after the run returns.
func (ls *liveServer) finish(res *result) {
	ls.res = res
	ls.done.Store(true)
}

// mux routes the four endpoints.
func (ls *liveServer) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/metrics", ls.handleMetrics)
	m.HandleFunc("/conns", ls.handleConns)
	m.HandleFunc("/series/", ls.handleSeries)
	m.HandleFunc("/profile", ls.handleProfile)
	return m
}

func (ls *liveServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ls.writeMetrics(w)
}

// connGauges are the per-connection gauges /metrics renders from each
// connection's last series point.
var connGauges = []struct {
	name string
	get  func(*flight.Point) int64
}{
	{"fox_conn_cwnd_bytes", func(p *flight.Point) int64 { return p.Cwnd }},
	{"fox_conn_ssthresh_bytes", func(p *flight.Point) int64 { return p.Ssthresh }},
	{"fox_conn_srtt_ns", func(p *flight.Point) int64 { return p.SRTT }},
	{"fox_conn_rto_ns", func(p *flight.Point) int64 { return p.RTO }},
	{"fox_conn_flight_bytes", func(p *flight.Point) int64 { return p.Flight }},
	{"fox_conn_snd_wnd_bytes", func(p *flight.Point) int64 { return p.SndWnd }},
	{"fox_conn_rcv_wnd_bytes", func(p *flight.Point) int64 { return p.RcvWnd }},
	{"fox_conn_ooo_bytes", func(p *flight.Point) int64 { return p.OOOBytes }},
}

// writeMetrics renders the full Prometheus payload: every plane always,
// and once the run has finished, the journal-derived connection gauges,
// the MIB registries and the substrate counters. -scrape uses the same
// renderer, so the CI artifact is byte-for-byte what a late /metrics
// scrape returns.
func (ls *liveServer) writeMetrics(w io.Writer) {
	for i, tl := range ls.planes {
		tl.WriteMetrics(w, ls.names[i])
	}
	if !ls.done.Load() {
		return
	}
	for _, g := range connGauges {
		fmt.Fprintf(w, "# TYPE %s gauge\n", g.name)
		for _, hj := range ls.res.journals {
			for _, cs := range hj.series {
				if p, ok := cs.last(); ok {
					fmt.Fprintf(w, "%s{host=%q,conn=%q} %d\n", g.name, hj.host, cs.conn, g.get(&p))
				}
			}
		}
	}
	fmt.Fprintf(w, "# HELP fox_mib MIB counter groups for every layer of every host\n# TYPE fox_mib gauge\n")
	for _, h := range ls.res.net.Hosts {
		writeSnapshotProm(w, h.Stats.Snapshot())
	}
	writeSnapshotProm(w, ls.res.substrate.Snapshot())
}

func writeSnapshotProm(w io.Writer, snap stats.Snapshot) {
	for _, g := range snap.Groups {
		for _, s := range g.Samples {
			fmt.Fprintf(w, "fox_mib{host=%q,group=%q,name=%q} %g\n", snap.Host, g.Name, s.Name, s.Value)
		}
	}
}

func (cs *connSeries) last() (flight.Point, bool) {
	if len(cs.pts) == 0 {
		return flight.Point{}, false
	}
	return cs.pts[len(cs.pts)-1], true
}

// finished answers 503 until the run is over: the series and the TCB
// stats are read from the finished run.
func (ls *liveServer) finished(w http.ResponseWriter) bool {
	if !ls.done.Load() {
		http.Error(w, "run in progress", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// liveConnJSON is one connection in the /conns listing: its series
// summary and, for the scenario's own connections, the full TCB stats.
type liveConnJSON struct {
	Host        string        `json:"host"`
	Conn        string        `json:"conn"`
	TotalPoints int           `json:"total_points"`
	Last        *flight.Point `json:"last,omitempty"`
	Stats       *connJSON     `json:"stats,omitempty"`
}

func (ls *liveServer) handleConns(w http.ResponseWriter, r *http.Request) {
	if !ls.finished(w) {
		return
	}
	statsByName := map[string]*connJSON{}
	for _, c := range ls.res.conns {
		cj := connStatsJSON(c)
		statsByName[c.Name()] = &cj
	}
	out := []liveConnJSON{}
	for _, hj := range ls.res.journals {
		for _, cs := range hj.series {
			lc := liveConnJSON{
				Host: hj.host, Conn: cs.conn, TotalPoints: len(cs.pts),
				Stats: statsByName[cs.conn],
			}
			if p, ok := cs.last(); ok {
				lc.Last = &p
			}
			out = append(out, lc)
		}
	}
	writeJSONResponse(w, out)
}

// handleSeries serves /series/<conn>: the connection's series as JSON,
// or as the cwnd/ssthresh/flight SVG chart with ?svg=1. <conn> is a
// connection name (as listed by /conns) or a zero-based index into that
// listing.
func (ls *liveServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	if !ls.finished(w) {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/series/")
	cs := ls.lookupSeries(name)
	if cs == nil {
		http.Error(w, "unknown series "+name, http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("svg") != "" {
		w.Header().Set("Content-Type", "image/svg+xml")
		seqplot.WriteSeriesSVG(w, cs.conn, cs.pts, 0, 0)
		return
	}
	writeJSONResponse(w, struct {
		Conn   string         `json:"conn"`
		Total  int            `json:"total_points"`
		Points []flight.Point `json:"points"`
	}{cs.conn, len(cs.pts), cs.pts})
}

func (ls *liveServer) lookupSeries(name string) *connSeries {
	var all []*connSeries
	for _, hj := range ls.res.journals {
		for i := range hj.series {
			if hj.series[i].conn == name {
				return &hj.series[i]
			}
			all = append(all, &hj.series[i])
		}
	}
	if i, err := strconv.Atoi(name); err == nil && i >= 0 && i < len(all) {
		return all[i]
	}
	return nil
}

func (ls *liveServer) handleProfile(w http.ResponseWriter, r *http.Request) {
	out := map[string]telemetry.ProfReport{}
	for i, tl := range ls.planes {
		out[ls.names[i]] = tl.Prof.Report()
	}
	writeJSONResponse(w, out)
}

func writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// watchLoop prints one snapshot line per plane every interval until
// stopped — the -watch flag. It runs on an OS goroutine and reads only
// the planes' atomics, so it observes the simulation without ever
// touching it (the file output stays outside the coroutine world).
func watchLoop(w io.Writer, planes []*foxnet.Telemetry, names []string, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			writeWatch(w, planes, names, nil)
		}
	}
}

// writeWatch renders one -watch snapshot: per host, the action count and
// action-latency p99 and, once the run is over and its journals are
// read (js non-nil, index-aligned with planes), the last point of each
// connection's series.
func writeWatch(w io.Writer, planes []*foxnet.Telemetry, names []string, js []hostJournal) {
	for i, tl := range planes {
		a := tl.Action.Snapshot()
		fmt.Fprintf(w, "watch %s: %d actions (p99 %d ns)", names[i], a.Count, a.P99)
		if i < len(js) {
			for _, cs := range js[i].series {
				if p, ok := cs.last(); ok {
					fmt.Fprintf(w, "  [%s cwnd %d flight %d srtt %dns]", cs.conn, p.Cwnd, p.Flight, p.SRTT)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

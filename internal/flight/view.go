package flight

// Views: what the journal answers beyond replay. The point events and a
// connection's congestion and window series are functions of the
// records, so any saved run — in a buffer or a file — has them.

// Events returns the journal's point events (ev records), in order.
func Events(recs []Record) []Record {
	var out []Record
	for i := range recs {
		if recs[i].Kind == KindEvent {
			out = append(out, recs[i])
		}
	}
	return out
}

// Point is one connection's protocol state after an action, at the
// virtual time the action began. Durations are virtual nanoseconds.
type Point struct {
	At       int64 `json:"at_ns"`
	Cwnd     int64 `json:"cwnd"`
	Ssthresh int64 `json:"ssthresh"`
	SRTT     int64 `json:"srtt_ns"`
	RTTVar   int64 `json:"rttvar_ns"`
	RTO      int64 `json:"rto_ns"`
	Flight   int64 `json:"flight"`    // bytes sent, unacknowledged
	SndWnd   int64 `json:"snd_wnd"`   // peer's advertised window
	RcvWnd   int64 `json:"rcv_wnd"`   // our advertised window
	OOOBytes int64 `json:"ooo_bytes"` // reassembly-queue depth (incl. overhead)
}

// SeriesFields are the end-delta keys Series reads.
var SeriesFields = [...]string{
	"cwnd", "ssthresh", "srtt", "rttvar", "rto",
	"snd_una", "snd_nxt", "snd_wnd", "rcv_wnd", "ooo",
}

// Series returns connection conn's state after every action that changed
// a field of SeriesFields: one point per such end record, stamped with
// its beg record's time. A delta carries a field only when it changes,
// so a field's value before its first change is that change's pre
// value, filled back into the points before it. A field no delta of the
// connection mentions kept, through every action, the value its
// creation gave it outside any action (an active open's ssthresh, a
// push-model receiver's rcv_wnd); the journal does not state that
// value, and Series reports it as 0.
func Series(recs []Record, conn string) []Point {
	// A row is a point's time, then the SeriesFields values in order.
	type row [1 + len(SeriesFields)]int64
	var (
		cur   row
		known [len(SeriesFields)]bool
		rows  []row
	)
	for i := range recs {
		r := &recs[i]
		if r.Conn != conn {
			continue
		}
		switch r.Kind {
		case KindBeg:
			cur[0] = r.At
		case KindEnd:
			changed := false
			for j, name := range SeriesFields {
				d, ok := r.Delta[name]
				if !ok {
					continue
				}
				if !known[j] {
					known[j] = true
					for k := range rows {
						rows[k][1+j] = d[0]
					}
				}
				cur[1+j], changed = d[1], true
			}
			if changed {
				rows = append(rows, cur)
			}
		}
	}
	pts := make([]Point, len(rows))
	for i, v := range rows {
		pts[i] = Point{
			At: v[0], Cwnd: v[1], Ssthresh: v[2], SRTT: v[3], RTTVar: v[4], RTO: v[5],
			Flight: int64(uint32(v[7]) - uint32(v[6])),
			SndWnd: v[8], RcvWnd: v[9], OOOBytes: v[10],
		}
	}
	return pts
}

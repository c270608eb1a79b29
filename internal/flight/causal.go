package flight

import (
	"fmt"
	"io"
)

// Index maps sequence numbers to their open/uop/enq records for causal
// walks.
func Index(recs []Record) map[uint64]*Record {
	bySeq := make(map[uint64]*Record, len(recs))
	for i := range recs {
		if recs[i].Seq != 0 {
			bySeq[recs[i].Seq] = &recs[i]
		}
	}
	return bySeq
}

// Chain walks the cause links backward from seq and returns the chain
// root-first: the packet arrival, timer expiration, or user call that
// ultimately led to the action, then every intermediate record down to
// seq itself.
func Chain(recs []Record, seq uint64) ([]*Record, error) {
	bySeq := Index(recs)
	var chain []*Record
	cur, ok := bySeq[seq]
	if !ok {
		return nil, fmt.Errorf("no record with seq %d", seq)
	}
	for cur != nil {
		chain = append(chain, cur)
		if cur.CK != CauseAct && cur.CK != CauseUser {
			break
		}
		parent, ok := bySeq[cur.Cz]
		if !ok {
			return nil, fmt.Errorf("seq %d names cause %d, which is not in the journal", cur.Seq, cur.Cz)
		}
		if parent.Seq >= cur.Seq {
			return nil, fmt.Errorf("seq %d names cause %d, which does not precede it", cur.Seq, cur.Cz)
		}
		cur = parent
	}
	// Reverse to root-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// Describe renders one record as a single human line.
func Describe(r *Record) string {
	switch r.Kind {
	case KindOpen:
		return fmt.Sprintf("#%d t=%dns open %s %s%s", r.Seq, r.At, r.Origin, r.Conn, causeSuffix(r))
	case KindUop:
		return fmt.Sprintf("#%d t=%dns user %s n=%d on %s%s", r.Seq, r.At, r.Op, r.N, r.Conn, causeSuffix(r))
	case KindEnq:
		s := fmt.Sprintf("#%d t=%dns enqueue %s", r.Seq, r.At, r.Action)
		if r.Args != "" {
			s += "{" + r.Args + "}"
		}
		return s + " on " + r.Conn + causeSuffix(r)
	case KindEvent:
		return fmt.Sprintf("t=%dns event %s a=%d b=%d on %s", r.At, r.EvKind, r.EvA, r.EvB, r.Conn)
	default:
		return fmt.Sprintf("t=%dns %s on %s", r.At, r.Kind, r.Conn)
	}
}

func causeSuffix(r *Record) string {
	switch r.CK {
	case CausePkt:
		return fmt.Sprintf("  <- packet seq=%d ack=%d flags=%#02x wnd=%d len=%d", r.PSeq, r.PAck, r.PFlag, r.PWnd, r.PLen)
	case CauseTimer:
		return fmt.Sprintf("  <- timer %d expired", r.Timer)
	case CauseAct:
		return fmt.Sprintf("  <- while performing #%d", r.Cz)
	case CauseUser:
		return fmt.Sprintf("  <- from user call #%d", r.Cz)
	}
	return ""
}

// Dot writes the journal's causal graph as Graphviz: one node per
// open/uop/enq record, one edge per cause link, with packet and timer
// roots rendered as their own nodes.
func Dot(w io.Writer, recs []Record) error {
	if _, err := fmt.Fprintln(w, "digraph flight {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  rankdir=LR; node [shape=box, fontsize=10];`)
	for i := range recs {
		r := &recs[i]
		if r.Seq == 0 {
			continue
		}
		var label, attr string
		switch r.Kind {
		case KindOpen:
			label = fmt.Sprintf("open %s\\n%s", r.Origin, r.Conn)
			attr = `, style=filled, fillcolor="#cfe8cf"`
		case KindUop:
			label = fmt.Sprintf("%s n=%d", r.Op, r.N)
			attr = `, style=filled, fillcolor="#cfd8e8"`
		case KindEnq:
			label = r.Action
			if r.Args != "" {
				label += "\\n" + r.Args
			}
		default:
			continue
		}
		fmt.Fprintf(w, "  n%d [label=\"#%d %s\"%s];\n", r.Seq, r.Seq, label, attr)
		switch r.CK {
		case CauseAct, CauseUser:
			fmt.Fprintf(w, "  n%d -> n%d;\n", r.Cz, r.Seq)
		case CausePkt:
			fmt.Fprintf(w, "  p%d [label=\"pkt seq=%d len=%d\", shape=ellipse, style=filled, fillcolor=\"#e8d8cf\"];\n", r.Seq, r.PSeq, r.PLen)
			fmt.Fprintf(w, "  p%d -> n%d;\n", r.Seq, r.Seq)
		case CauseTimer:
			fmt.Fprintf(w, "  t%d [label=\"timer %d\", shape=ellipse, style=filled, fillcolor=\"#e8e3cf\"];\n", r.Seq, r.Timer)
			fmt.Fprintf(w, "  t%d -> n%d;\n", r.Seq, r.Seq)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

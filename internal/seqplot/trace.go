package seqplot

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/sim"
)

// WriteSeriesSVG renders a connection series (flight.Series) as a line
// chart: the congestion window, slow-start threshold, and flight size in
// bytes against virtual time. It is the congestion-control companion to the
// Collector's sequence plot — where that shows every segment on the
// wire, this shows the sender's internal state evolving between them.
// Width and height are in pixels; sensible defaults apply when zero.
func WriteSeriesSVG(w io.Writer, name string, pts []flight.Point, width, height int) error {
	if width <= 0 {
		width = 900
	}
	if height <= 0 {
		height = 400
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d"><text x="20" y="30">no samples</text></svg>`+"\n", width, height)
		return err
	}

	t0, t1 := pts[0].At, pts[len(pts)-1].At
	if t1 == t0 {
		t1 = t0 + 1
	}
	var yMax int64 = 1
	for _, p := range pts {
		for _, v := range [...]int64{p.Cwnd, p.Ssthresh, p.Flight} {
			if v > yMax {
				yMax = v
			}
		}
	}

	const mL, mR, mT, mB = 60, 20, 20, 40
	px := func(at int64) float64 {
		return mL + float64(at-t0)/float64(t1-t0)*float64(width-mL-mR)
	}
	py := func(v int64) float64 {
		return float64(height-mB) - float64(v)/float64(yMax)*float64(height-mT-mB)
	}
	poly := func(b *strings.Builder, get func(flight.Point) int64, color, dash string) {
		var s strings.Builder
		for _, p := range pts {
			fmt.Fprintf(&s, "%.1f,%.1f ", px(p.At), py(get(p)))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"%s/>`+"\n",
			strings.TrimSpace(s.String()), color, dash)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mL, height-mB, width-mR, height-mB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mL, mT, mL, height-mB)
	// Connection names contain "<->"; escape before embedding in XML.
	esc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(name)
	fmt.Fprintf(&b, `<text x="%d" y="%d">%s — time (%v total)</text>`+"\n",
		mL, height-10, esc, time.Duration(sim.Duration(t1-t0)).Round(time.Millisecond))
	fmt.Fprintf(&b, `<text x="5" y="%d" transform="rotate(-90 12 %d)">bytes (max %d)</text>`+"\n", mT+100, mT+100, yMax)

	poly(&b, func(p flight.Point) int64 { return p.Cwnd }, "#333333", "")
	poly(&b, func(p flight.Point) int64 { return p.Ssthresh }, "#d7301f", ` stroke-dasharray="4 3"`)
	poly(&b, func(p flight.Point) int64 { return p.Flight }, "#2166ac", "")

	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333333">— cwnd</text>`+"\n", width-160, mT+12)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#d7301f">-- ssthresh</text>`+"\n", width-160, mT+26)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#2166ac">— flight</text>`+"\n", width-160, mT+40)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

package seqplot

import (
	"strings"
	"testing"

	"repro/internal/flight"
)

func TestSeriesSVGWellFormed(t *testing.T) {
	pts := []flight.Point{
		{At: 0, Cwnd: 4096, Ssthresh: 65535, Flight: 0},
		{At: 1_000_000, Cwnd: 5120, Ssthresh: 65535, Flight: 2048},
		{At: 2_000_000, Cwnd: 2048, Ssthresh: 2560, Flight: 2048},
	}
	var b strings.Builder
	if err := WriteSeriesSVG(&b, "10.0.0.2:80<->:1024", pts, 0, 0); err != nil {
		t.Fatalf("WriteSeriesSVG: %v", err)
	}
	svg := b.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("output is not a complete SVG document")
	}
	if n := strings.Count(svg, "<polyline"); n != 3 {
		t.Errorf("want 3 polylines (cwnd, ssthresh, flight), got %d", n)
	}
	for _, want := range []string{"cwnd", "ssthresh", "flight"} {
		if !strings.Contains(svg, want) {
			t.Errorf("legend missing %q", want)
		}
	}
	// The conn name goes through XML escaping (it contains "<->").
	if strings.Contains(svg, "10.0.0.2:80<->") {
		t.Error("conn name not XML-escaped in title")
	}
}

func TestSeriesSVGEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteSeriesSVG(&b, "c", nil, 300, 100); err != nil {
		t.Fatalf("WriteSeriesSVG(empty): %v", err)
	}
	svg := b.String()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "no samples") {
		t.Errorf("empty-series SVG should render a placeholder, got: %.120s", svg)
	}
}

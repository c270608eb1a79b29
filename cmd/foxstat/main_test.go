package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
)

// TestHostileEventsComplete: foxstat's JSON lists every point event each
// host's journal holds, in journal order — the attacked server raises
// over a thousand, far past what a bounded buffer would keep.
func TestHostileEventsComplete(t *testing.T) {
	sc, _ := newScenario("hostile")
	dir := t.TempDir()
	res, err := sc.run(64_000, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	writeJSON(&out, res, "hostile", 64_000)
	var doc docJSON
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("foxstat -json output: %v", err)
	}
	if len(doc.Hosts) != 3 {
		t.Fatalf("%d hosts in the JSON, want 3", len(doc.Hosts))
	}
	for i, hj := range doc.Hosts {
		f, err := os.Open(filepath.Join(dir, res.net.Hosts[i].Name+".fjl"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := flight.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		evs := flight.Events(recs)
		if len(hj.Events) != len(evs) {
			t.Fatalf("host%d: JSON lists %d events, journal holds %d", i+1, len(hj.Events), len(evs))
		}
		for k := range evs {
			if want := eventOf(&evs[k]); hj.Events[k] != want {
				t.Fatalf("host%d event %d: JSON %+v, journal %+v", i+1, k, hj.Events[k], want)
			}
		}
	}
	if n := len(doc.Hosts[1].Events); n <= 256 {
		t.Errorf("the attacked server lists %d events; the hostile run raises far more than 256", n)
	}
}

package experiments

import (
	"strings"
	"testing"
)

func TestTelemetryOverhead(t *testing.T) {
	r := Attest(Options{Bytes: 80_000}, SinkFlight, SinkSeal, SinkTelemetry, SinkSeal|SinkTelemetry)
	if len(r.Arms) != 5 {
		t.Fatalf("got %d arms, want the unobserved one plus four", len(r.Arms))
	}
	off := r.Arms[0]
	for _, arm := range r.Arms[1:] {
		if arm.Transfer.ElapsedNS != off.Transfer.ElapsedNS {
			t.Errorf("%v: virtual time diverged: off %v on %v", arm.Sinks, off.Transfer.ElapsedNS, arm.Transfer.ElapsedNS)
		}
		if arm.Transfer.SegsSent != off.Transfer.SegsSent {
			t.Errorf("%v: segment count diverged: off %d on %d", arm.Sinks, off.Transfer.SegsSent, arm.Transfer.SegsSent)
		}
		if arm.Sinks&SinkFlight != 0 && arm.JournalRecords == 0 {
			t.Errorf("%v: journaled run recorded nothing", arm.Sinks)
		}
		if arm.Sinks&SinkSeal != 0 && arm.SealedBatches == 0 {
			t.Errorf("%v: sealed run sealed no batch", arm.Sinks)
		}
		if arm.Sinks&SinkTelemetry != 0 && arm.Actions == 0 {
			t.Errorf("%v: telemetered run profiled no action", arm.Sinks)
		}
	}
	if plain, sealed := r.Arms[1], r.Arms[2]; sealed.JournalBytes <= plain.JournalBytes {
		t.Errorf("sealed journal (%d B) should carry seal records on top of the plain one (%d B)",
			sealed.JournalBytes, plain.JournalBytes)
	}
	if !r.Identical || !strings.Contains(r.Text, "identical off/on") {
		t.Errorf("report should attest bit-identical results:\n%s", r.Text)
	}
}

func TestTelemetryReport(t *testing.T) {
	rep, text := AttestReport(Options{Bytes: 60_000}, SinkTelemetry)
	if rep.Telemetry == nil || rep.Attestation == nil {
		t.Fatal("report must carry telemetry and attestation sections")
	}
	if len(rep.Attestation.Arms) != 2 || !rep.Attestation.Identical {
		t.Fatalf("attestation = %+v, want two identical arms", rep.Attestation)
	}
	if rep.Telemetry.Sender == nil || rep.Telemetry.Receiver == nil {
		t.Fatal("both host planes must be present")
	}
	if rep.Telemetry.Sender.Action.Count == 0 {
		t.Error("sender action histogram empty")
	}
	if len(rep.Telemetry.Sender.Profile.Actions) == 0 {
		t.Error("sender profile empty")
	}
	if text == "" {
		t.Error("text summary empty")
	}
}

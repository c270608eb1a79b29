package tcp

// The flight journal's TCP vocabulary: what a journaled run (observe.go)
// and its replay (replay.go) must agree on — the recorded Config, the
// TCB projection whose deltas every end record carries, and the
// rendering of an action's arguments.

import (
	"strconv"

	"repro/internal/flight"
	"repro/internal/sim"
)

// recordedConfig is the journal form of the resolved Config: everything
// replay needs to rebuild an identically-parameterized endpoint. Written
// once into the hdr record. Durations are nanoseconds.
type recordedConfig struct {
	InitialWindow     int   `json:"iw"`
	ComputeChecksums  bool  `json:"cks"`
	AbortUnknown      bool  `json:"au"`
	UserTimeout       int64 `json:"ut"`
	MSL               int64 `json:"msl"`
	DelayedAcks       bool  `json:"da"`
	AckDelay          int64 `json:"ad"`
	Nagle             bool  `json:"ng"`
	FastPath          bool  `json:"fp"`
	CongestionControl bool  `json:"cc"`
	InitialRTO        int64 `json:"irto"`
	MinRTO            int64 `json:"minrto"`
	MaxRTO            int64 `json:"maxrto"`
	BackoffCeiling    int64 `json:"bc"`
	SendBufferLimit   int   `json:"sbl"`
	ReassemblyLimit   int   `json:"rl"`
	MaxSynBacklog     int   `json:"msb"`
	MemoryLimit       int   `json:"ml"`
	ChallengeACKLimit int   `json:"cal"`
	PersistInterval   int64 `json:"pi"`
	Keepalive         bool  `json:"ka"`
	KeepaliveIdle     int64 `json:"kai"`
	KeepaliveCount    int   `json:"kac"`
	CopyPerKB         int64 `json:"cpk"`
	ChecksumPerKB     int64 `json:"xpk"`
}

// journalConfig captures the endpoint's resolved configuration.
func (t *TCP) journalConfig() recordedConfig {
	cfg := &t.cfg
	return recordedConfig{
		InitialWindow:     cfg.InitialWindow,
		ComputeChecksums:  cfg.computeChecksums(),
		AbortUnknown:      cfg.abortUnknown(),
		UserTimeout:       int64(cfg.UserTimeout),
		MSL:               int64(cfg.MSL),
		DelayedAcks:       cfg.delayedAcks(),
		AckDelay:          int64(cfg.AckDelay),
		Nagle:             cfg.nagle(),
		FastPath:          cfg.fastPath(),
		CongestionControl: cfg.congestionControl(),
		InitialRTO:        int64(cfg.InitialRTO),
		MinRTO:            int64(cfg.MinRTO),
		MaxRTO:            int64(cfg.MaxRTO),
		BackoffCeiling:    int64(cfg.BackoffCeiling),
		SendBufferLimit:   cfg.SendBufferLimit,
		ReassemblyLimit:   cfg.ReassemblyLimit,
		MaxSynBacklog:     cfg.MaxSynBacklog,
		MemoryLimit:       cfg.MemoryLimit,
		ChallengeACKLimit: cfg.ChallengeACKLimit,
		PersistInterval:   int64(cfg.PersistInterval),
		Keepalive:         cfg.Keepalive,
		KeepaliveIdle:     int64(cfg.KeepaliveIdle),
		KeepaliveCount:    cfg.KeepaliveCount,
		CopyPerKB:         int64(cfg.DataPath.CopyPerKB),
		ChecksumPerKB:     int64(cfg.DataPath.ChecksumPerKB),
	}
}

func boolPtr(b bool) *bool {
	if b {
		return Enable
	}
	return Disable
}

// config rebuilds a Config that fill() resolves to exactly the recorded
// parameters.
func (rc recordedConfig) config() Config {
	return Config{
		InitialWindow:           rc.InitialWindow,
		ComputeChecksums:        boolPtr(rc.ComputeChecksums),
		AbortUnknownConnections: boolPtr(rc.AbortUnknown),
		UserTimeout:             sim.Duration(rc.UserTimeout),
		MSL:                     sim.Duration(rc.MSL),
		DelayedAcks:             boolPtr(rc.DelayedAcks),
		AckDelay:                sim.Duration(rc.AckDelay),
		Nagle:                   boolPtr(rc.Nagle),
		FastPath:                boolPtr(rc.FastPath),
		CongestionControl:       boolPtr(rc.CongestionControl),
		InitialRTO:              sim.Duration(rc.InitialRTO),
		MinRTO:                  sim.Duration(rc.MinRTO),
		MaxRTO:                  sim.Duration(rc.MaxRTO),
		BackoffCeiling:          sim.Duration(rc.BackoffCeiling),
		SendBufferLimit:         rc.SendBufferLimit,
		ReassemblyLimit:         rc.ReassemblyLimit,
		MaxSynBacklog:           rc.MaxSynBacklog,
		MemoryLimit:             rc.MemoryLimit,
		ChallengeACKLimit:       rc.ChallengeACKLimit,
		PersistInterval:         sim.Duration(rc.PersistInterval),
		Keepalive:               rc.Keepalive,
		KeepaliveIdle:           sim.Duration(rc.KeepaliveIdle),
		KeepaliveCount:          rc.KeepaliveCount,
		DataPath: DataPathCosts{
			CopyPerKB:     sim.Duration(rc.CopyPerKB),
			ChecksumPerKB: sim.Duration(rc.ChecksumPerKB),
		},
	}
}

// tcbSnap is the journaled projection of a TCB: the fields whose
// evolution the paper's test-by-TCB-comparison methodology tracks, as
// int64s in snapNames order.
type tcbSnap [16]int64

// snapNames are the delta field names, aligned with tcbSnap indices.
var snapNames = [16]string{
	"state", "snd_una", "snd_nxt", "rcv_nxt", "snd_wnd", "rcv_wnd",
	"cwnd", "ssthresh", "rto", "timers", "qb", "ooo", "rexq", "rcvbuf",
	"srtt", "rttvar",
}

// snapTCB projects the connection's current TCB.
//
//foxvet:hotpath
func (c *Conn) snapTCB() tcbSnap {
	tcb := c.tcb
	var armed int64
	for i := timerID(0); i < numTimers; i++ {
		if tcb.armed[i] {
			armed |= 1 << uint(i)
		}
	}
	return tcbSnap{
		int64(c.state),
		int64(uint32(tcb.sndUna)),
		int64(uint32(tcb.sndNxt)),
		int64(uint32(tcb.rcvNxt)),
		int64(tcb.sndWnd),
		int64(tcb.rcvWnd),
		int64(tcb.cwnd),
		int64(tcb.ssthresh),
		int64(tcb.rto),
		armed,
		int64(tcb.queuedBytes),
		int64(tcb.oooBytes),
		int64(tcb.rexmitQ.Len()),
		int64(c.recv.buffered),
		int64(tcb.srtt),
		int64(tcb.rttvar),
	}
}

// appendSnapDelta renders the changed fields between two snapshots as
// flight delta pairs.
func appendSnapDelta(dst []byte, pre, post *tcbSnap) []byte {
	for i := range pre {
		if pre[i] != post[i] {
			dst = flight.AppendDelta(dst, snapNames[i], pre[i], post[i])
		}
	}
	return dst
}

// appendActionArgs renders an action's deterministic arguments — what
// the replay audit compares at every drain to prove the reconstructed
// machine is enqueueing the same work the live machine did.
func appendActionArgs(dst []byte, a action) []byte {
	switch a.kind {
	case actProcessData:
		dst = appendSegArgs(dst, a.seg)
	case actSendSegment:
		dst = appendSegArgs(dst, a.seg)
		dst = append(dst, " rexmits="...)
		dst = strconv.AppendInt(dst, int64(a.seg.rexmits), 10)
	case actUserData:
		dst = append(dst, "len="...)
		dst = strconv.AppendInt(dst, int64(len(a.seg.data)), 10)
	case actUserError:
		dst = append(dst, "err="...)
		dst = append(dst, a.err.Error()...)
	case actSetTimer:
		dst = append(dst, "d="...)
		dst = strconv.AppendInt(dst, int64(a.d), 10)
	case actCompleteOpen, actCompleteClose:
		if a.err != nil {
			dst = append(dst, "err="...)
			dst = append(dst, a.err.Error()...)
		}
	}
	return dst
}

func appendSegArgs(dst []byte, sg *segment) []byte {
	dst = append(dst, "seq="...)
	dst = strconv.AppendUint(dst, uint64(uint32(sg.seq)), 10)
	dst = append(dst, " flags="...)
	dst = strconv.AppendUint(dst, uint64(sg.flags), 10)
	dst = append(dst, " len="...)
	dst = strconv.AppendInt(dst, int64(len(sg.data)), 10)
	return dst
}

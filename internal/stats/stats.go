// Package stats is the machine-readable counterpart of the paper's
// do_prints/do_traces text tracing: a zero-dependency metrics registry
// holding MIB-style counter groups (RFC 2011/2012 shape) for every
// protocol layer, and the substrate's scheduler and wire counters. Point
// events are not counters: they are flight-journal records
// (internal/flight).
//
// Concurrency discipline mirrors the stack's two worlds. Counter, Gauge
// and the histogram they share with the telemetry plane (telemetry.Hist)
// are atomic (sync/atomic) so a snapshot may be taken from outside the
// scheduler while a simulation is live. Everything plain — the
// per-connection fields on the TCB — is mutated only inside the
// quasi-synchronous executor, where the scheduler's channel-handoff
// protocol already provides happens-before, so no atomics are needed and
// `go test -race` proves the split sound.
//
// Like the Tracer, everything is nil-safe: a detached *Counter or a host
// with no Registry installed costs at most one branch per touch, and the
// layer configs allocate their own MIB group when none is supplied so
// the increment sites themselves are branch-free.
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Counter is a monotonically increasing 64-bit counter. The zero value
// is ready to use; all methods are nil-safe.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed instantaneous value that also remembers its
// high-water mark. The zero value is ready; all methods are nil-safe.
type Gauge struct {
	v  atomic.Int64
	hw atomic.Int64
}

// Add moves the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	n := g.v.Add(d)
	g.bump(n)
	return n
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.bump(n)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the highest value the gauge has held.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hw.Load()
}

func (g *Gauge) bump(n int64) {
	for {
		h := g.hw.Load()
		if n <= h || g.hw.CompareAndSwap(h, n) {
			return
		}
	}
}

// --- MIB groups ----------------------------------------------------------
//
// One struct per protocol layer, field names following RFC 2011/2012 (and
// their neighbors for the layers SNMP never standardized here). Each
// layer's Config.fill allocates its group when none was supplied, so the
// increment sites never branch; installing the same group into a Registry
// is what makes it visible.

// TCPMIB is the endpoint's one counter set: the RFC 2012-style tcp
// group, the datapath counts the RFC never standardized (spelled after
// Linux's TcpExt where one exists), and a histogram of smoothed
// round-trip-time samples in microseconds. tcp.Stats is a view over it.
type TCPMIB struct {
	ActiveOpens  Counter // transitions to SYN-SENT from CLOSED
	PassiveOpens Counter // transitions to SYN-RECEIVED from LISTEN
	AttemptFails Counter // SYN-SENT/SYN-RCVD directly to CLOSED/LISTEN
	EstabResets  Counter // ESTABLISHED/CLOSE-WAIT directly to CLOSED
	CurrEstab    Gauge   // connections currently ESTABLISHED or CLOSE-WAIT
	InSegs       Counter // segments received, including errored ones
	OutSegs      Counter // segments sent, excluding retransmissions
	RetransSegs  Counter // segments retransmitted
	InErrs       Counter // segments discarded for bad checksum/format
	OutRsts      Counter // RST segments sent
	InCsumErrs   Counter // the bad-checksum share of InErrs
	InRsts       Counter // RST segments received on a connection
	InNoConns    Counter // segments for which no connection or listener existed
	InFastPath   Counter // segments the header-prediction fast path handled
	InSlowPath   Counter // segments that took the full receive DAG
	InDupAcks    Counter // duplicate ACKs received with data in flight
	InOutOfOrder Counter // data segments held for reassembly
	InDataBytes  Counter // payload bytes delivered in order to users
	OutDataBytes Counter // payload bytes segmentized, excluding retransmissions
	DelayedAcks  Counter // ACKs sent by the delayed-ACK timer
	Accepts      Counter // connections a listener created, embryonic ones included
	RttUsec      telemetry.Hist
}

// HardenMIB counts the hostile-network defenses: RFC 5961 challenge
// ACKs, SYN-backlog and reassembly-queue evictions, and the tcp_mem-style
// memory-accounting transitions. SNMP never standardized these; the field
// names follow Linux's netstat TcpExt spellings where one exists.
type HardenMIB struct {
	ChallengeACKsSent       Counter // RFC 5961 challenge ACKs emitted
	ChallengeACKsSuppressed Counter // challenge ACKs withheld by the rate limit
	OOWAcksSuppressed       Counter // out-of-window re-ACKs withheld (RFC 5961 §5.3 throttling)
	SynQueueOverflows       Counter // half-open connections evicted, table full
	SynDropsPressure        Counter // SYNs refused under memory pressure
	OOOEvictions            Counter // reassembly-queue segments evicted at the cap
	ProgressTimeouts        Counter // connections aborted by the user timeout: no forward progress
	MemPressureEnter        Counter // normal -> pressure transitions
	MemPressureExit         Counter // returns to normal
	MemExhaustedEnter       Counter // transitions into exhausted
	HalfOpen                Gauge   // embryonic (SYN-received) connections now
	MemBytes                Gauge   // bytes charged to the endpoint memory account
}

// SealMIB counts the flight journal's seal writer: records hashed into
// the chain, batches sealed, and the partial batches Sync sealed. SNMP
// has no audit-log group; the names follow the seal package's own
// vocabulary.
type SealMIB struct {
	RecordsSealed Counter // journal records hashed into a batch
	BatchesSealed Counter // seal records written
	SyncSeals     Counter // partial batches sealed by Sync
}

// FaultMIB counts the scripted fault plane's activity: every schedule
// transition applied to the wire, broken out by kind, plus a gauge of
// how many abnormal conditions are currently in force. SNMP has no
// fault-injection group; the names follow the .fsched vocabulary
// (internal/fault).
type FaultMIB struct {
	Transitions   Counter // schedule transitions applied, total
	LinkDowns     Counter // linkdown transitions
	LinkUps       Counter // linkup transitions
	Partitions    Counter // partition transitions
	Heals         Counter // heal transitions
	BurstStarts   Counter // burstloss activations
	BurstEnds     Counter // burstend deactivations
	CorruptStorms Counter // corruptstorm activations (corruptend clears)
	RateLimits    Counter // ratelimit activations (rateclear clears)
	DelaySpikes   Counter // delayspike activations (delayclear clears)
	Active        Gauge   // abnormal conditions currently in force
}

// IPMIB is the RFC 2011-style ip group.
type IPMIB struct {
	InReceives      Counter
	InHdrErrors     Counter
	InAddrErrors    Counter
	InUnknownProtos Counter
	InDelivers      Counter
	OutRequests     Counter
	OutDiscards     Counter
	OutNoRoutes     Counter
	ForwDatagrams   Counter
	ReasmReqds      Counter
	ReasmOKs        Counter
	ReasmFails      Counter
	FragOKs         Counter
	FragCreates     Counter
}

// UDPMIB is the RFC 2013-style udp group.
type UDPMIB struct {
	InDatagrams  Counter
	NoPorts      Counter
	InErrors     Counter
	OutDatagrams Counter
}

// ICMPMIB is the RFC 2011-style icmp group, trimmed to the message types
// this stack implements.
type ICMPMIB struct {
	InMsgs          Counter
	InErrors        Counter
	InDestUnreachs  Counter
	InTimeExcds     Counter
	InEchos         Counter
	InEchoReps      Counter
	OutMsgs         Counter
	OutDestUnreachs Counter
	OutTimeExcds    Counter
	OutEchos        Counter
	OutEchoReps     Counter
}

// ARPMIB counts the address-resolution traffic under the ip group's
// media table in the MIB; broken out here because the paper's stack
// treats ARP as a peer protocol.
type ARPMIB struct {
	InRequests  Counter
	InReplies   Counter
	OutRequests Counter
	OutReplies  Counter
	Learned     Counter // cache entries created or refreshed
	Failures    Counter // resolutions that timed out
	Malformed   Counter
}

// EthMIB is the interfaces-group equivalent for the device layer.
type EthMIB struct {
	InFrames        Counter
	InOctets        Counter
	InErrors        Counter // FCS failures
	InDiscards      Counter // frames for another station
	InUnknownProtos Counter
	InRunts         Counter
	OutFrames       Counter
	OutOctets       Counter
}

// --- Registry ------------------------------------------------------------

// Sample is one named value in a snapshot. Values are float64 so counters
// and derived means share a representation; counters are integral and
// render without a decimal point.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GroupSnapshot is the rendered state of one registered group.
type GroupSnapshot struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
}

// Snapshot is a point-in-time rendering of a whole Registry.
type Snapshot struct {
	Host   string          `json:"host"`
	Groups []GroupSnapshot `json:"groups"`
}

type entry struct {
	name  string
	group any             // pointer to a struct of Counter/Gauge/telemetry.Hist
	fn    func() []Sample // or a closure producing samples directly
}

// Registry aggregates the metric groups of one host (or one shared
// substrate). Registration happens at stack-assembly time on a single
// thread; Snapshot may run at any time, from any goroutine, because every
// registered value is atomic.
type Registry struct {
	host    string
	entries []entry
}

// NewRegistry returns an empty registry for the named host.
func NewRegistry(host string) *Registry { return &Registry{host: host} }

// Host returns the registry's host name ("" for nil).
func (r *Registry) Host() string {
	if r == nil {
		return ""
	}
	return r.host
}

// Register adds a named group — a pointer to a struct whose exported
// fields are Counter, Gauge or telemetry.Hist values. Unknown field types are
// skipped at snapshot time. Nil-safe; nil groups are ignored.
func (r *Registry) Register(name string, group any) {
	if r == nil || group == nil {
		return
	}
	r.entries = append(r.entries, entry{name: name, group: group})
}

// RegisterFunc adds a named group whose samples are produced by fn at
// snapshot time — for sources that keep plain counters of their own,
// like the scheduler and the wire.
func (r *Registry) RegisterFunc(name string, fn func() []Sample) {
	if r == nil || fn == nil {
		return
	}
	r.entries = append(r.entries, entry{name: name, fn: fn})
}

// Snapshot renders every registered group. Groups appear in registration
// order; struct samples in field order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{Host: r.host}
	for _, e := range r.entries {
		g := GroupSnapshot{Name: e.name}
		if e.fn != nil {
			g.Samples = e.fn()
		} else {
			g.Samples = walkGroup(e.group)
		}
		snap.Groups = append(snap.Groups, g)
	}
	return snap
}

var (
	counterType = reflect.TypeOf(Counter{})
	gaugeType   = reflect.TypeOf(Gauge{})
	histType    = reflect.TypeOf((*telemetry.Hist)(nil)).Elem()
)

// walkGroup turns a pointer-to-struct of metric values into samples via
// reflection. This is the cold path — it runs only at snapshot time, so
// the hot increment paths stay free of any indirection.
func walkGroup(group any) []Sample {
	v := reflect.ValueOf(group)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	v = v.Elem()
	t := v.Type()
	var out []Sample
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type {
		case counterType:
			c := v.Field(i).Addr().Interface().(*Counter)
			out = append(out, Sample{Name: f.Name, Value: float64(c.Load())})
		case gaugeType:
			g := v.Field(i).Addr().Interface().(*Gauge)
			out = append(out,
				Sample{Name: f.Name, Value: float64(g.Load())},
				Sample{Name: f.Name + "High", Value: float64(g.High())})
		case histType:
			h := v.Field(i).Addr().Interface().(*telemetry.Hist)
			n, sum := h.Count(), h.Sum()
			mean := 0.0
			if n > 0 {
				mean = float64(sum) / float64(n)
			}
			out = append(out,
				Sample{Name: f.Name + "Count", Value: float64(n)},
				Sample{Name: f.Name + "Sum", Value: float64(sum)},
				Sample{Name: f.Name + "Mean", Value: mean})
		}
	}
	return out
}

// Text renders the snapshot as aligned "group.Name value" lines, one per
// sample, in registration order.
func (s Snapshot) Text() string {
	width := 0
	for _, g := range s.Groups {
		for _, smp := range g.Samples {
			if n := len(g.Name) + 1 + len(smp.Name); n > width {
				width = n
			}
		}
	}
	var b bytes.Buffer
	if s.Host != "" {
		fmt.Fprintf(&b, "# host %s\n", s.Host)
	}
	for _, g := range s.Groups {
		for _, smp := range g.Samples {
			fmt.Fprintf(&b, "%-*s %s\n", width, g.Name+"."+smp.Name, formatValue(smp.Value))
		}
	}
	return b.String()
}

// JSON renders the snapshot as a nested object
// {"host": ..., "groups": {"tcp": {"InSegs": 42, ...}, ...}} with keys
// sorted by encoding/json, so output is deterministic and easy to index.
func (s Snapshot) JSON() ([]byte, error) {
	groups := map[string]map[string]float64{}
	for _, g := range s.Groups {
		m := groups[g.Name]
		if m == nil {
			m = map[string]float64{}
			groups[g.Name] = m
		}
		for _, smp := range g.Samples {
			m[smp.Name] = smp.Value
		}
	}
	return json.MarshalIndent(struct {
		Host   string                        `json:"host"`
		Groups map[string]map[string]float64 `json:"groups"`
	}{s.Host, groups}, "", "  ")
}

// Get returns the named sample ("group.Name") and whether it exists —
// the assertion hook for tests.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, g := range s.Groups {
		for _, smp := range g.Samples {
			if g.Name+"."+smp.Name == name {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

// Names returns every "group.Name" key in the snapshot, sorted.
func (s Snapshot) Names() []string {
	var out []string
	for _, g := range s.Groups {
		for _, smp := range g.Samples {
			out = append(out, g.Name+"."+smp.Name)
		}
	}
	sort.Strings(out)
	return out
}

// formatValue prints integral values without a decimal point and
// fractional ones compactly.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

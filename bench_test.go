// Package repro's benchmarks regenerate every measured quantity in the
// paper's evaluation (§3 and §5). Each benchmark names the paper artifact
// it reproduces; virtual-time results are attached as custom metrics
// (virt-* units), real-time results use the normal ns/op. EXPERIMENTS.md
// records paper-vs-measured for all of them.
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/checksum"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/timers"
)

// --- Table 1 ------------------------------------------------------------

// paperOpts is the Table 1 configuration: 10^6 bytes, 4096-byte window,
// 10 Mb/s wire, CPU charged at 1000×, plus the documented 1994 modes.
func paperOpts(full1994 bool) experiments.Options {
	o := experiments.Options{}
	if full1994 {
		o.SMLEra = true
		o.SMLFactor = 5
	}
	return o
}

func benchThroughput(b *testing.B, impl experiments.Impl, full1994 bool) {
	var r experiments.TransferResult
	for i := 0; i < b.N; i++ {
		r = experiments.Throughput(impl, paperOpts(full1994))
	}
	b.ReportMetric(r.ThroughputMbps, "virt-Mb/s")
	b.ReportMetric(float64(r.Elapsed)/float64(time.Millisecond), "virt-ms")
	b.ReportMetric(float64(r.SegsSent), "segs")
}

func benchRTT(b *testing.B, impl experiments.Impl, full1994 bool) {
	var r experiments.RTTResult
	o := paperOpts(full1994)
	o.Rounds = 50
	for i := 0; i < b.N; i++ {
		r = experiments.RoundTrip(impl, o)
	}
	b.ReportMetric(float64(r.MeanRTT)/float64(time.Millisecond), "virt-ms-rtt")
}

// BenchmarkTable1 reproduces Table 1: Fox Net vs x-kernel baseline,
// throughput (paper: 0.6 vs 2.5 Mb/s) and round trip (36 vs 4.9 ms).
// The Structured vs XKernel pair isolates the cost of structure alone;
// the Full1994 pair adds the paper's measured data-path constants and the
// 5× SML/NJ code-generation factor (DESIGN.md §3).
func BenchmarkTable1(b *testing.B) {
	b.Run("Throughput/FoxNet", func(b *testing.B) { benchThroughput(b, experiments.Structured, false) })
	b.Run("Throughput/XKernel", func(b *testing.B) { benchThroughput(b, experiments.XKernelBaseline, false) })
	b.Run("Throughput/FoxNetFull1994", func(b *testing.B) { benchThroughput(b, experiments.Structured, true) })
	b.Run("RoundTrip/FoxNet", func(b *testing.B) { benchRTT(b, experiments.Structured, false) })
	b.Run("RoundTrip/XKernel", func(b *testing.B) { benchRTT(b, experiments.XKernelBaseline, false) })
	b.Run("RoundTrip/FoxNetFull1994", func(b *testing.B) { benchRTT(b, experiments.Structured, true) })
}

// BenchmarkTable2 reproduces Table 2: the execution profile of the
// profiled 10^6-byte transfer. The headline rows are attached as metrics
// (percent of busy time, comparable to the paper's two-machine run).
func BenchmarkTable2(b *testing.B) {
	var r experiments.TransferResult
	for i := 0; i < b.N; i++ {
		o := paperOpts(true)
		o.Profile = true
		r = experiments.Throughput(experiments.Structured, o)
	}
	rows := map[string]float64{}
	for _, row := range r.Sender.Rows {
		rows[row.Label] = row.Busy
	}
	b.ReportMetric(rows["TCP"], "tcp-busy-%")
	b.ReportMetric(rows["IP"], "ip-busy-%")
	b.ReportMetric(rows["copy"], "copy-busy-%")
	b.ReportMetric(rows["checksum"], "cksum-busy-%")
}

// --- E-gc: the §5 garbage-collection observation -------------------------

// BenchmarkGCExperiment reproduces the in-text claim that ≥5 MB runs see
// major collections yet sustain the same or better throughput than 1 MB
// runs.
func BenchmarkGCExperiment(b *testing.B) {
	var r experiments.GCResult
	for i := 0; i < b.N; i++ {
		r = experiments.GCExperiment(experiments.Options{})
	}
	b.ReportMetric(r.Short.ThroughputMbps, "virt-Mb/s-1MB")
	b.ReportMetric(r.Long.ThroughputMbps, "virt-Mb/s-5MB")
	b.ReportMetric(float64(r.Long.NumGC), "gcs-5MB")
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblation measures the design toggles the paper discusses: the
// quasi-synchronous queue vs direct dispatch, the fast path, delayed
// ACKs, Nagle, and congestion control.
func BenchmarkAblation(b *testing.B) {
	for _, a := range experiments.Ablations() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var r experiments.TransferResult
			for i := 0; i < b.N; i++ {
				o := experiments.Options{}
				cfg := a.Cfg
				o.TCPConfig = &cfg
				r = experiments.Throughput(experiments.Structured, o)
			}
			b.ReportMetric(r.ThroughputMbps, "virt-Mb/s")
		})
	}
}

// --- E-cksum: Fig. 10 and §5 checksum study ------------------------------

// BenchmarkChecksum reproduces the checksum comparison: the paper's
// optimized loop ran at 343 µs/KB on the DECstation against the
// x-kernel's 375 µs/KB "slower algorithm". The real ns/op here divides by
// 1 KB; multiply by the 1000× CPU scale to compare against the paper.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	odd := buf[1 : 1+1022] // byte-2-misaligned view, as the paper measured
	for _, bc := range []struct {
		name string
		data []byte
		f    func(uint16, []byte) uint16
	}{
		{"Fig10", buf, checksum.SumFig10},
		{"Fig10Odd", odd, checksum.SumFig10},
		{"Wide", buf, checksum.SumWide},
		{"NaiveXKernel", buf, checksum.SumNaive},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink = bc.f(0, bc.data)
			}
			_ = sink
			nsPerKB := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerKB*1000/1000, "virt-µs/KB") // ns real ≈ µs at 1000× scale
		})
	}
}

// --- E-copy: the §5 copy study -------------------------------------------

// BenchmarkCopy reproduces the copy comparison: the SML per-byte indexed
// loop (300 µs/KB, every access bounds-checked) against bcopy (61 µs/KB).
// IndexedCopy is the SML shape, the builtin copy is bcopy, WordCopy is
// the staged improvement the paper anticipated.
func BenchmarkCopy(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	b.Run("IndexedSML", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			basis.IndexedCopy(dst, src)
		}
	})
	b.Run("Word", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			basis.WordCopy(dst, src)
		}
	})
	b.Run("BuiltinBcopy", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
}

// --- E-sched: §3's scheduler costs ----------------------------------------

//go:noinline
func emptyFunction() {}

// BenchmarkScheduler reproduces the paper's §3 measurements: an empty
// function call (1.2 µs on the DECstation) against creating a thread,
// terminating the current one, and switching (≈30 µs including scheduler
// bookkeeping). The paper's point is the ratio: a full coroutine
// create+switch costs only ~25 empty calls.
func BenchmarkScheduler(b *testing.B) {
	b.Run("EmptyCall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emptyFunction()
		}
	})
	b.Run("ForkExitSwitch", func(b *testing.B) {
		s := sim.New(sim.Config{})
		s.Run(func() {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Fork("t", func() {})
				s.Yield() // run it; it exits and switches back
			}
		})
	})
	b.Run("YieldPair", func(b *testing.B) {
		s := sim.New(sim.Config{})
		s.Run(func() {
			other := func() {
				for {
					s.Yield()
				}
			}
			s.Fork("peer", other)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Yield() // main -> peer -> main: two switches
			}
		})
	})
}

// --- E-timer: Fig. 11 ------------------------------------------------------

// BenchmarkTimer measures the timer facility's two cycles — start+clear
// (the common case on the segment path) and start+expire — for the
// stack's timers, whose forked thread the scheduler runs itself, and for
// Fig. 11 as printed, a thread per start: the ablation.
func BenchmarkTimer(b *testing.B) {
	for _, impl := range []struct {
		name  string
		start func(s *sim.Scheduler, handler func(), d time.Duration) any
		clear func(timer any)
	}{
		{"", func(s *sim.Scheduler, h func(), d time.Duration) any { return timers.Start(s, h, d) },
			func(t any) { t.(*timers.Timer).Clear() }},
		{"Fig11", func(s *sim.Scheduler, h func(), d time.Duration) any { return timers.Fig11(s, h, d) },
			func(t any) { *t.(*bool) = true }},
	} {
		b.Run("StartClear"+impl.name, func(b *testing.B) {
			s := sim.New(sim.Config{})
			s.Run(func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.clear(impl.start(s, func() {}, time.Hour))
					if i%1024 == 0 {
						s.Sleep(2 * time.Hour) // drain cleared timers
					}
				}
			})
		})
		b.Run("StartExpire"+impl.name, func(b *testing.B) {
			s := sim.New(sim.Config{})
			s.Run(func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fired := false
					impl.start(s, func() { fired = true }, time.Microsecond)
					s.Sleep(2 * time.Microsecond)
					if !fired {
						b.Fatal("timer did not fire")
					}
				}
			})
		})
	}
}

// --- E-ctr: §5's counter cost ----------------------------------------------

// BenchmarkCounter reproduces the profiling-counter measurement: one
// start/stop pair cost the paper 15 µs; here it costs two virtual-clock
// reads, and the "counters (est.)" row of Table 2 uses the paper's
// figure.
func BenchmarkCounter(b *testing.B) {
	s := sim.New(sim.Config{})
	s.Run(func() {
		p := profile.New(s, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Start(profile.CatMisc).Stop()
		}
	})
}

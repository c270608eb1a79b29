GO ?= go

.PHONY: build test check lint foxvet foxvet-json foxvet-baseline statemachine-dot sessiontype-dot copyflow-dot bench perf perf-gate chaos audit telemetry fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# foxvet runs the tree's own analyzers (internal/analysis, assembled by
# cmd/foxvet): seqcmp, singledoor, quasisync, layering, atomiccounter,
# statemachine, noblock, hotpathalloc, sessiontype, shardaffinity,
# taint, intrange, copyflow. See the "Static invariants" section of
# README.md.
foxvet:
	$(GO) run ./cmd/foxvet ./...

# foxvet-baseline records the current findings to foxvet.baseline.json.
# Use it only when landing a new analyzer ahead of the last legacy fix
# (run with `foxvet -baseline foxvet.baseline.json`); the tree ships
# with zero findings, so the recorded ledger should normally be empty.
foxvet-baseline:
	$(GO) run ./cmd/foxvet -write-baseline foxvet.baseline.json ./...

# foxvet-json writes the self-describing report object (foxvet/v2:
# schema, analyzers, findings) to foxvet.json — the artifact CI uploads
# on every run.
foxvet-json:
	$(GO) run ./cmd/foxvet -json ./... > foxvet.json; \
	status=$$?; cat foxvet.json; exit $$status

# statemachine-dot prints the setState transition relation extracted
# from internal/tcp as Graphviz, annotated against the RFC 793 table.
# Pipe it through dot -Tsvg to render.
statemachine-dot:
	$(GO) run ./cmd/foxvet -statemachine-dot ./...

# sessiontype-dot prints the socket-lifecycle protocol the sessiontype
# pass proved, with per-edge counts of call sites exercising each
# transition.
sessiontype-dot:
	$(GO) run ./cmd/foxvet -sessiontype-dot ./...

# copyflow-dot prints the proved copy map of the zero-copy datapath:
# every copy site per layer, classified sanctioned / reviewed boundary /
# violation, with site counts. A clean tree has no red nodes.
copyflow-dot:
	$(GO) run ./cmd/foxvet -copyflow-dot ./...

# check is the full gate: go vet, the structural analyzers, and every
# test under the race detector. The stats package's atomic/plain split is
# exercised here — TestAtomicUnderRace hammers registered counters from
# many goroutines while snapshots run concurrently.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/foxvet ./...
	$(GO) test -race ./...

# lint is an alias for check, for fingers trained on other repos.
lint: check

bench:
	$(GO) test -bench=. -benchmem

# perf runs the repository's benchmark (bench/, BENCHMARK.json) the short
# way: every workload for half a second with every metric printed, then
# the determinism attestation — each workload twice untraced and once
# behind the tracing shim must agree on every exact value and on the
# delivery digest. The quick pass is also written to bench-quick.json (CI
# uploads it): its counts — allocs_per_txn, alloc_KB_per_txn, every
# tcp.*/wire.*/sim.* count, the virt_* values — are exact and the same on
# any runner, so they can be read per commit; its wall numbers are not.
# For a comparison against another commit use `go run ./bench -o a.json`
# on each and `go run ./bench -compare a.json b.json`.
perf:
	$(GO) run ./bench -quick -o bench-quick.json
	$(MAKE) perf-gate
	$(GO) run ./bench -verify

# perf-gate reads the quick pass and fails on exact counts, the same on any
# runner; each is a ceiling, and a value the quick pass does not report
# fails too.
#  - A thread forked per segment on a clean persistent-connection workload:
#    the scheduler runs the timers' coroutines itself, so sim.forks_per_seg
#    is exactly 0 there, and anything above it means some per-segment path
#    went back to forking.
#  - Heap on the data path: frames, packets, segments and actions are all
#    recycled or plain values, so a 10^6-byte reply allocates ~0.01 KB (1279
#    when every frame, Packet, segment and boxed action was made per
#    segment) and a 1-byte round trip 1 object (17). The ceilings leave room
#    to hold a frame now and then, not to allocate per segment.
#  - A fork that costs more heap than it did: churn_2c forks and opens a
#    connection per transaction, and its allocs_per_txn reads 66.01 — 173.03
#    before the receive path borrowed, 177.03 when every thread was a new
#    goroutine, 197 when every thread is a new coroutine.
perf-gate:
	@awk 'BEGIN { \
	    max["sim.forks_per_seg", "rr_1b"] = 0; max["sim.forks_per_seg", "bulk_w4k"] = 0; max["sim.forks_per_seg", "bulk_w64k"] = 0; \
	    max["alloc_KB_per_txn", "bulk_w4k"] = 100; max["alloc_KB_per_txn", "bulk_w64k"] = 100; \
	    max["allocs_per_txn", "rr_1b"] = 6; max["allocs_per_txn", "churn_2c"] = 66.11 } \
	  /"workload":/ { w = $$2; gsub(/[",]/, "", w) } \
	  { m = $$1; gsub(/[":]/, "", m) } \
	  (m, w) in max { seen[m, w] = 1; \
	    if ($$2 + 0 > max[m, w]) { print "perf-gate: " m " = " $$2 + 0 " on " w ", ceiling " max[m, w]; bad = 1 } } \
	  END { for (k in max) if (!(k in seen)) { split(k, p, SUBSEP); print "perf-gate: bench-quick.json reports no " p[1] " for " p[2]; bad = 1 } \
	    exit bad }' bench-quick.json

# chaos runs the deterministic soaks under the race detector: the
# adversary soak (SYN floods, spoofed RFC 5961 probes, gap bombs, junk
# against a lossy transfer) and the fault-plane partition soak (scripted
# flap/partition/burst schedules; every connection completes or aborts
# with the progress timeout inside a computable bound), with exact
# per-seed assertions (see internal/adversary/soak_test.go,
# internal/fault/soak_test.go, and the EXPERIMENTS.md recipe). Set
# CHAOS_OUT to collect .fsched/journal/pcap artifacts on failure.
chaos:
	$(GO) test -race -count=1 -v ./internal/adversary/ ./internal/fault/

# audit exercises the tamper-evidence pipeline end to end: a lossy
# foxstat run seals both hosts' journals with the SHA-256 hash chain
# into audit-journals/ and prints each chain head, then foxreplay
# verifies every chain and replay-audits the journals with sharded
# workers. Any flipped bit in either journal fails the verify step.
audit:
	rm -rf audit-journals
	$(GO) run ./cmd/foxstat -scenario lossy -flight audit-journals -seal
	$(GO) run ./cmd/foxreplay -verify -workers 4 audit-journals

# telemetry gates the observers: the unit and integration tests
# (histogram goldens, seqlock rings, zero-alloc emit, endpoint smoke, the
# purity matrix over every sink), then the attestation — foxbench runs
# the same transfer unobserved, journaled, sealed, telemetered and with
# everything attached, and attests only if the virtual results match
# exactly in every arm — and finally a foxstat scrape proves the /metrics
# rendering end to end.
telemetry:
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/seqplot/ ./cmd/foxstat/
	$(GO) test -race -count=1 -run 'TestTelemetry|NoAllocs' ./internal/tcp/ ./internal/experiments/
	$(GO) run ./cmd/foxbench -flight -telemetry -bytes 200000 | tee /dev/stderr | grep -q "identical off/on in every arm"
	$(GO) run ./cmd/foxstat -scrape metrics.txt
	grep -q "^fox_action_latency_ns" metrics.txt

fmt:
	gofmt -w .

//go:build race

package tcp

// Under the race detector — which `make check` and `make chaos` run with —
// the free list overwrites every returned buffer, so a transmission from
// a recycled segment, or a frame that leans on bytes it did not write,
// shows as 0xA5 on the wire and fails the suites' byte-for-byte checks.
const poisonRecycled = true

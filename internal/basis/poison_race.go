//go:build race

package basis

// Under the race detector — which `make check` and `make chaos` run with —
// every free list of packet memory (tcp's segPool, wire's frame pool)
// overwrites a buffer as it takes it back, so a transmission from a
// recycled segment, a frame that leans on bytes it did not write, or a
// receiver still reading a frame it only borrowed shows as 0xA5 and fails
// the suites' byte-for-byte checks.
const PoisonRecycled = true

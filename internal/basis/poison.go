package basis

// PoisonByte is what the race build fills a recycled buffer with.
const PoisonByte = 0xA5

// Poison overwrites b when PoisonRecycled is set and does nothing
// otherwise. A free list of packet memory calls it on every buffer it
// takes back, so whoever still reads or sends from the buffer is loud.
func Poison(b []byte) {
	if PoisonRecycled {
		for i := range b {
			b[i] = PoisonByte
		}
	}
}

// Package telemetry is a miniature of repro/internal/telemetry for the
// atomiccounter testdata: the one histogram type, whose fields only its
// own methods may touch.
package telemetry

type Hist struct {
	count uint64
	sum   uint64
}

func (h *Hist) Observe(v uint64) {
	h.count++ // own method: allowed
	h.sum += v
}

func (h *Hist) Count() uint64 { return h.count }

// peek reads a field from outside the type's methods.
func peek(h *Hist) uint64 {
	return h.sum // want "field sum of telemetry.Hist accessed outside its methods"
}

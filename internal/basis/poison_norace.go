//go:build !race

package basis

const PoisonRecycled = false

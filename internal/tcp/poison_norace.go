//go:build !race

package tcp

const poisonRecycled = false

//go:build !amd64

package store

// prefetch is a no-op where the store carries no prefetch instruction.
func prefetch(addr uintptr) {}

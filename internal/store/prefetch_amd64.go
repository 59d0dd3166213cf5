package store

// prefetch hints the cache line holding addr, and the line after it,
// into every cache level (PREFETCHT0). It never faults, so the second
// line may lie past the end of addr's array, and it does not wait: the
// loads it starts complete while the caller goes on.
func prefetch(addr uintptr)

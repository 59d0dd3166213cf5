package sim

// FreeList is the LIFO record pool of everything that runs on one
// engine: events and their lanes, packets, protocol messages, client
// ops. A miss carves the next record from a block of freeListBlock
// allocated at once (the slab idea of Bonwick, USENIX Summer 1994), so
// a fresh cluster fills its pools one allocation per block, not per
// record. A block lives while any of its records does: one never Put
// back (a message the network dropped) keeps its slot for the list's
// life. The zero value is empty and ready; not safe for concurrent use.
type FreeList[T any] struct {
	free  []*T
	block []T // the uncarved rest of the newest block
}

const freeListBlock = 64

// Get returns the record most recently Put, as its last user left it,
// or else a zeroed one carved from the current block.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free) - 1; n >= 0 {
		m := l.free[n]
		l.free = l.free[:n]
		return m
	}
	if len(l.block) == 0 {
		l.block = make([]T, freeListBlock)
	}
	m := &l.block[0]
	l.block = l.block[1:]
	return m
}

// Put parks m for the next Get. Clear what it must not pin first.
func (l *FreeList[T]) Put(m *T) { l.free = append(l.free, m) }

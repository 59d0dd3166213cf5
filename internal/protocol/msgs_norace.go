//go:build !race

package protocol

// recycleGuard is empty outside race builds: the calls inline to
// nothing and FreeList is a bare slice.
type recycleGuard[T comparable] struct{}

func (*recycleGuard[T]) recycle(*T) {}

func (*recycleGuard[T]) reuse(*T) {}

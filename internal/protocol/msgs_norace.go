//go:build !race

package protocol

// recycleGuard is empty outside race builds: the calls inline to
// nothing and FreeList is a bare sim.FreeList.
type recycleGuard[T any] struct{}

func (*recycleGuard[T]) recycle(*T) {}

func (*recycleGuard[T]) reuse(*T) {}

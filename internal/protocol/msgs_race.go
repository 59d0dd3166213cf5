//go:build race

package protocol

import "reflect"

// recycleGuard is the race-build check on FreeList: it knows which
// records are parked, so a second Take of one panics, and it
// overwrites a parked record with a poison pattern and compares on
// reuse, so a write through a pointer kept past Take panics at the
// next Get. A read through such a pointer
// cannot be trapped, but what it reads (all-ones counters, replica
// index -1) matches no protocol state and indexes no slice.
type recycleGuard[T comparable] struct {
	parked map[*T]struct{}
	poison T
}

func (g *recycleGuard[T]) recycle(m *T) {
	if g.parked == nil {
		g.parked = make(map[*T]struct{})
		poisonValue(reflect.ValueOf(&g.poison).Elem())
	}
	if _, twice := g.parked[m]; twice {
		panic("protocol: message recycled twice")
	}
	g.parked[m] = struct{}{}
	*m = g.poison
}

func (g *recycleGuard[T]) reuse(m *T) {
	if *m != g.poison {
		panic("protocol: message written after it was recycled")
	}
	delete(g.parked, m)
}

// poisonValue fills v's exported integer and boolean fields,
// recursively; what can hold a pointer stays zero, so a parked record
// pins nothing.
func poisonValue(v reflect.Value) {
	if !v.CanSet() {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poisonValue(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poisonValue(v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1<<uint(v.Type().Bits()) - 1)
	case reflect.Bool:
		v.SetBool(true)
	}
}

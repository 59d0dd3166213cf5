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
type recycleGuard[T any] struct {
	parked map[*T]struct{}
	poison T
}

func (g *recycleGuard[T]) recycle(m *T) {
	if g.parked == nil {
		g.parked = make(map[*T]struct{})
		p := reflect.ValueOf(&g.poison).Elem()
		poison(p, p, false)
	}
	if _, twice := g.parked[m]; twice {
		panic("protocol: message recycled twice")
	}
	g.parked[m] = struct{}{}
	*m = g.poison
}

// reuse checks a parked record; one freshly carved from a block is not.
func (g *recycleGuard[T]) reuse(m *T) {
	_, parked := g.parked[m]
	if parked && !poison(reflect.ValueOf(m).Elem(), reflect.ValueOf(&g.poison).Elem(), true) {
		panic("protocol: message written after it was recycled")
	}
	delete(g.parked, m)
}

// poison fills v's exported integer and boolean fields, recursively,
// with all ones (true for a boolean), or, with check set, reports
// whether v still holds what the poisoned record p holds, without
// allocating: records may hold slices, so == cannot compare them. What
// can hold a pointer stays zero, so a parked record pins nothing.
func poison(v, p reflect.Value, check bool) bool {
	set := !check && v.CanSet()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !poison(v.Field(i), p.Field(i), check) {
				return false
			}
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if set {
			v.SetInt(-1)
		}
		return v.Int() == p.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if set {
			v.SetUint(1<<uint(v.Type().Bits()) - 1)
		}
		return v.Uint() == p.Uint()
	case reflect.Bool:
		if set {
			v.SetBool(true)
		}
		return v.Bool() == p.Bool()
	}
	return v.IsZero()
}

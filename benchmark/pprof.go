package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it is a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto). The decoder below
// reads the few fields attribution needs — samples, locations with
// their inlined lines, functions and the string table — and skips the
// rest, so the benchmark needs nothing outside the standard library.

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errTruncated = errors.New("pprof: truncated message")

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbEach calls fn for every field of msg.
func pbEach(msg []byte, fn func(pbField) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(msg)
			if n == 0 {
				return errTruncated
			}
			f.v, msg = v, msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		into, b = append(into, v), b[n:]
	}
	return into, nil
}

// cpuSample is one stack of a CPU profile, leaf first, inlined frames
// expanded, with its sample count.
type cpuSample struct {
	stack []string // function names, innermost first
	count int64
}

// decodeProfile parses a runtime/pprof CPU profile.
func decodeProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		raw       []rawSample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		decodeErr error
	)
	err := pbEach(data, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			decodeErr = pbEach(f.b, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					s.values, err = pbUints(g, s.values)
				}
				return err
			})
			raw = append(raw, s)
		case 4: // location
			var id uint64
			var fns []uint64
			decodeErr = pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line; lines run innermost-inlined first
					return pbEach(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			decodeErr = pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return decodeErr
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(raw))
	for _, s := range raw {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.values[0])} // CPU profiles: samples/count first, cpu/ns second
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: string index %d out of range", idx)
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// layers are the program's modules, in ledger order. A profile sample
// belongs to the layer of the innermost frame of its stack that lies in
// harmonia/internal/<layer>; sub-packages (protocol/vr) fold into their
// parent.
var layers = []string{
	"sim", "simnet", "wire", "dataplane", "core", "protocol", "store",
	"workload", "cluster", "rack", "rebalance", "metrics", "lincheck", "trace",
}

const (
	layerGC           = "runtime.gc"
	layerUnattributed = "runtime.unattributed"
	internalPrefix    = "harmonia/internal/"
)

// gcRoots are the runtime entry points of the collector's own
// goroutines; a stack with no program frame that passes through one is
// collector work done on the program's behalf.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

// layerOf returns the layer a stack (innermost first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return layerUnattributed
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return layerGC
			}
		}
	}
	return layerUnattributed
}

// cpuShares folds a profile into each layer's share of all samples.
// The shares sum to 1.
func cpuShares(samples []cpuSample) map[string]float64 {
	shares := make(map[string]float64)
	var total int64
	for _, s := range samples {
		shares[layerOf(s.stack)] += float64(s.count)
		total += s.count
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares
}

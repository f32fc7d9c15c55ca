package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// simLayers are the simulator packages (hpmmap/internal/<layer>) the
// profile fold reports on. Internal packages not listed here (stats,
// invariant, timeline, ...) are helpers: their self time is charged to
// the nearest listed caller.
var simLayers = []string{
	"sim", "mem", "buddy", "pgtable", "tlb", "vma", "fault", "kernel",
	"linuxmm", "thp", "hugetlb", "core", "workload", "runner",
	"experiments", "trace", "metrics",
}

// layers are the fold's buckets: the simulator layers, the Go runtime's
// memory-management work, and everything else.
var layers = append(append([]string(nil), simLayers...), "runtime", "other")

const internalPrefix = "hpmmap/internal/"

// runtimeWork lists the Go runtime functions (by prefix, after the
// "runtime." qualifier) that are memory-management work: allocation,
// zeroing and garbage collection. A CPU sample whose stack reaches one of
// these before any simulator frame is charged to "runtime"; other runtime
// leaves (map access, memmove, ...) are charged to the calling layer.
var runtimeWork = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice",
	"makemap", "memclr", "gc", "mark", "scan", "greyobject", "sweep",
	"bgsweep", "bgscavenge", "wbBuf", "bulkBarrier", "heapBits",
	"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*gcWork)",
	"(*gcControllerState)", "(*sweepLocked)",
}

// profile is the part of a pprof profile the fold needs: the value types
// and, per sample, its values and its stack as function names from the
// leaf (innermost, inlined frames first) to the root.
type profile struct {
	sampleTypes []string
	samples     []sample
}

type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (has %v)", name, p.sampleTypes)
}

// foldLayers sums the named sample value per layer. With chargeRuntime,
// samples inside the runtime's allocation/GC/zeroing work go to
// "runtime" (the CPU fold); without it every sample goes to its innermost
// simulator layer (the allocation fold, whose stacks all end in malloc).
// Samples with no simulator frame go to "runtime" when their leaf is in
// the runtime and to "other" otherwise.
func foldLayers(p *profile, valueType string, chargeRuntime bool) (map[string]int64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[layerOf(s.stack, chargeRuntime)] += s.values[vi]
		}
	}
	return out, nil
}

func layerOf(stack []string, chargeRuntime bool) string {
	for _, fn := range stack {
		if l, ok := simLayer(fn); ok {
			return l
		}
		if chargeRuntime && isRuntimeWork(fn) {
			return "runtime"
		}
	}
	if len(stack) > 0 && isRuntime(stack[0]) {
		return "runtime"
	}
	return "other"
}

// simLayer maps a function name such as
// "hpmmap/internal/mem.(*Zone).Alloc" to its listed layer.
func simLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return "", false
	}
	pkg := rest[:end]
	for _, l := range simLayers {
		if l == pkg {
			return l, true
		}
	}
	return "", false
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

func isRuntimeWork(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range runtimeWork {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// shares converts per-layer totals into percentages of their sum; every
// layer is present in the result, absent ones as 0.
func shares(totals map[string]int64) map[string]float64 {
	var sum int64
	for _, v := range totals {
		sum += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if sum > 0 {
			out[l] = 100 * float64(totals[l]) / float64(sum)
		} else {
			out[l] = 0
		}
	}
	return out
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) as written
// by runtime/pprof. Only sample types, samples, locations, functions and
// the string table are read.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		typeIdx []int64 // string-table index of each sample type's name
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case num == 2 && wire == 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, rs := range samples {
		s := sample{values: rs.values}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				s.stack = append(s.stack, str(funcs[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of one protobuf message, handing
// varint fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

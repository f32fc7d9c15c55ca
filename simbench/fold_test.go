package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for building fixture profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, body []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

// fixtureProfile encodes a CPU profile whose samples have the given
// stacks (leaf first; a stack entry may hold several functions inlined
// into one location, innermost first) and values.
func fixtureProfile(t *testing.T, stacks [][][]string, values []int64, packed bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	funcs := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			loc := pb(nil).varint(1, locID)
			for _, fn := range frame {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					p = p.bytes(5, pb(nil).varint(1, id).varint(2, strIdx(fn)))
				}
				loc = loc.bytes(4, pb(nil).varint(1, id).varint(2, 7))
			}
			p = p.bytes(4, loc)
			locs = append(locs, locID)
		}
		var s pb
		if packed {
			s = s.packed(1, locs...).packed(2, 1, uint64(values[i]))
		} else {
			for _, l := range locs {
				s = s.varint(1, l)
			}
			s = s.varint(2, 1).varint(2, uint64(values[i]))
		}
		p = p.bytes(2, s)
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldFixtureProfile(t *testing.T) {
	f := func(fns ...string) [][]string {
		var out [][]string
		for _, fn := range fns {
			out = append(out, []string{fn})
		}
		return out
	}
	stacks := [][][]string{
		f("hpmmap/internal/mem.(*Zone).Alloc", "hpmmap/internal/kernel.(*Node).Boot"),
		f("runtime.memclrNoHeapPointers", "runtime.mallocgc", "hpmmap/internal/mem.newZone"),
		f("runtime.mapaccess2", "hpmmap/internal/pgtable.(*Table).Walk"),
		// An unlisted helper package is charged to its listed caller.
		f("hpmmap/internal/stats.Pareto", "hpmmap/internal/linuxmm.(*Manager).touch"),
		f("runtime.gcBgMarkWorker", "runtime.goexit"),
		f("runtime.futex", "runtime.findRunnable"),
		f("main.main", "runtime.main"),
		// sort.Slice inlined into the engine: one location, two lines.
		{{"sort.Slice", "hpmmap/internal/sim.(*Engine).Step"}, {"runtime.main"}},
	}
	values := []int64{400, 200, 120, 80, 60, 40, 30, 70}
	want := map[string]int64{
		"mem": 400, "runtime": 300, "pgtable": 120, "linuxmm": 80, "other": 30, "sim": 70,
	}
	for _, packed := range []bool{true, false} {
		p, err := parseProfile(fixtureProfile(t, stacks, values, packed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := foldLayers(p, "cpu", true)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			if got[l] != want[l] {
				t.Errorf("packed=%v: %s = %d, want %d", packed, l, got[l], want[l])
			}
		}
		sh := shares(got)
		if math.Abs(sh["mem"]-40) > 1e-9 || len(sh) != len(layers) {
			t.Errorf("shares: mem %.3f%% of %d layers, want 40%% of %d", sh["mem"], len(sh), len(layers))
		}
	}

	// The allocation fold charges malloc to its caller.
	p, err := parseProfile(fixtureProfile(t, stacks, values, true))
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldLayers(p, "cpu", false)
	if err != nil {
		t.Fatal(err)
	}
	if got["mem"] != 600 || got["pgtable"] != 120 || got["runtime"] != 100 {
		t.Errorf("allocation fold: mem %d pgtable %d runtime %d, want 600 120 100", got["mem"], got["pgtable"], got["runtime"])
	}
	if _, err := foldLayers(p, "alloc_space", false); err == nil {
		t.Error("folding a missing sample type succeeded")
	}
}

func TestParseRuntimeAllocProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.valueIndex("alloc_space"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed")
	}
}

package pgtable

import (
	"slices"
	"testing"

	"hpmmap/internal/mem"
)

// refLeaf is one mapping of the reference model.
type refLeaf struct {
	pfn  mem.PFN
	size PageSize
	prot Prot
}

// refTable is the reference model FuzzPageTable checks a Table against:
// the set of leaf mappings keyed by start address, plus the operation
// counters the Table must agree with.
type refTable struct {
	leaves                     map[VirtAddr]refLeaf
	mapOps, unmapOps, splitOps uint64
}

// covering returns the leaf that maps va, if any.
func (r *refTable) covering(va VirtAddr) (VirtAddr, refLeaf, bool) {
	for _, ps := range []PageSize{Page4K, Page2M, Page1G} {
		base := va &^ VirtAddr(ps.Bytes()-1)
		if l, ok := r.leaves[base]; ok && l.size == ps {
			return base, l, true
		}
	}
	return 0, refLeaf{}, false
}

// overlaps reports whether any leaf intersects [va, va+ps).
func (r *refTable) overlaps(va VirtAddr, ps PageSize) bool {
	if _, _, ok := r.covering(va); ok {
		return true
	}
	end := va + VirtAddr(ps.Bytes())
	hit := false
	for k := range r.leaves {
		if k >= va && k < end {
			hit = true
		}
	}
	return hit
}

// fuzzAddr decodes two bytes into an address whose table indexes come
// from a few values per level, so random ops collide on shared tables:
// bits 0-1 pick the PML4 slot, 2-3 the PDPT slot, 4-6 the PD slot, 7-9
// the PT slot, and 10-15 a 64-byte offset inside the page.
func fuzzAddr(a0, a1 byte) VirtAddr {
	bits := uint64(a0) | uint64(a1)<<8
	pml4 := [4]uint64{0, 1, 0x100, 0x1ff}[bits&3]
	pdpt := [4]uint64{0, 1, 2, 0x1ff}[bits>>2&3]
	pd := [8]uint64{0, 1, 2, 3, 4, 5, 0x1fe, 0x1ff}[bits>>4&7]
	pt := [8]uint64{0, 1, 2, 3, 0xff, 0x100, 0x1fe, 0x1ff}[bits>>7&7]
	return VirtAddr(pml4<<39 | pdpt<<30 | pd<<21 | pt<<12 | (bits>>10)*64)
}

func alignDown(va VirtAddr, ps PageSize) VirtAddr { return va &^ VirtAddr(ps.Bytes()-1) }

// FuzzPageTable runs random sequences of Map, Unmap, UnmapRange,
// Split2M, Protect and Walk against a map[VirtAddr]refLeaf model. Input:
// 4-byte ops [op, a0, a1, c], the address decoded by fuzzAddr:
//
//	0, 1: Map at the address aligned to size [4K,4K,2M,1G][c&3], prot c>>2&15
//	2:    Unmap at the address aligned to size [4K,4K,2M,1G][c&3]
//	3:    UnmapRange from the address (4K-aligned unless c&0x80) for
//	      1+(c>>2&31) units of [4K,2M,1G,512G][c&3]
//	4:    Split2M at the address (2M-aligned unless c&1)
//	5:    Protect the address with prot c&15
//	6:    Walk the address
//
// After every op it checks the mapped set (each leaf's PFN, size and
// prot), the Mapped*, MapOps, UnmapOps and SplitOps counters, that
// TablePages counts the reachable nodes, and that every non-root node
// is non-empty with a live count equal to its present slots. Ops past
// the first maxFuzzOps are ignored, which bounds the cost of one input.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0x10, 0, 2, 4, 0x10, 0, 0, 3, 0x90, 0, 0x05, 6, 0x90, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pt := New()
		ref := &refTable{leaves: map[VirtAddr]refLeaf{}}
		sizes := [4]PageSize{Page4K, Page4K, Page2M, Page1G}
		units := [4]uint64{mem.PageSize, mem.LargePageSize, mem.HugePageSize, 1 << 39}
		data = data[:min(len(data), 4*maxFuzzOps)]
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op, va, c := data[0]%7, fuzzAddr(data[1], data[2]), data[3]
			switch op {
			case 0, 1:
				ps, prot := sizes[c&3], Prot(c>>2&15)
				va = alignDown(va, ps)
				pfn := mem.PFN(step+1) << 20
				want := !ref.overlaps(va, ps)
				err := pt.Map(va, pfn, ps, prot)
				if (err == nil) != want {
					t.Fatalf("op %d: Map(%#x, %s) = %v, want success %v", step, uint64(va), ps, err, want)
				}
				if want {
					ref.leaves[va] = refLeaf{pfn, ps, prot}
					ref.mapOps++
				}
			case 2:
				ps := sizes[c&3]
				va = alignDown(va, ps)
				l, ok := ref.leaves[va]
				ok = ok && l.size == ps
				pfn, err := pt.Unmap(va, ps)
				if (err == nil) != ok || (ok && pfn != l.pfn) {
					t.Fatalf("op %d: Unmap(%#x, %s) = %d, %v; want %+v, %v", step, uint64(va), ps, pfn, err, l, ok)
				}
				if ok {
					delete(ref.leaves, va)
					ref.unmapOps++
				}
			case 3:
				if c&0x80 == 0 {
					va = alignDown(va, Page4K)
				}
				length := (1 + uint64(c>>2&31)) * units[c&3]
				for k := range ref.leaves {
					if uint64(k) >= uint64(va) && uint64(k) < uint64(va)+length {
						delete(ref.leaves, k)
						ref.unmapOps++
					}
				}
				pt.UnmapRange(va, length)
			case 4:
				if c&1 == 0 {
					va = alignDown(va, Page2M)
				}
				l, ok := ref.leaves[va]
				ok = ok && l.size == Page2M
				if err := pt.Split2M(va); (err == nil) != ok {
					t.Fatalf("op %d: Split2M(%#x) = %v, want success %v", step, uint64(va), err, ok)
				}
				if ok {
					for i := uint64(0); i < 512; i++ {
						ref.leaves[va+VirtAddr(i*mem.PageSize)] = refLeaf{l.pfn + mem.PFN(i), Page4K, l.prot}
					}
					ref.splitOps++
				}
			case 5:
				prot := Prot(c & 15)
				base, l, ok := ref.covering(va)
				ps, err := pt.Protect(va, prot)
				if (err == nil) != ok || (ok && ps != l.size) {
					t.Fatalf("op %d: Protect(%#x) = %s, %v; want %+v, %v", step, uint64(va), ps, err, l, ok)
				}
				if ok {
					l.prot = prot
					ref.leaves[base] = l
				}
			case 6:
				_, l, ok := ref.covering(va)
				m, hit := pt.Walk(va)
				if hit != ok {
					t.Fatalf("op %d: Walk(%#x) hit %v, want %v", step, uint64(va), hit, ok)
				}
				if ok && (m.PFN != l.pfn || m.Size != l.size || m.Prot != l.prot || m.Levels != levelFor(l.size)+1) {
					t.Fatalf("op %d: Walk(%#x) = %+v, want %+v", step, uint64(va), m, l)
				}
			}
			checkAgainstRef(t, step, pt, ref)
		}
	})
}

// maxFuzzOps bounds the ops one FuzzPageTable input runs.
const maxFuzzOps = 96

// checkAgainstRef compares the table with the reference model.
func checkAgainstRef(t *testing.T, step int, pt *Table, ref *refTable) {
	t.Helper()
	want := make([]VirtAddr, 0, len(ref.leaves))
	for va := range ref.leaves {
		want = append(want, va)
	}
	slices.Sort(want)
	i := 0
	pt.Range(func(va VirtAddr, m Mapping) bool {
		if i >= len(want) || want[i] != va {
			t.Fatalf("op %d: table maps %#x (%+v), reference does not (leaf %d of %d)", step, uint64(va), m, i, len(want))
		}
		l := ref.leaves[va]
		if m.PFN != l.pfn || m.Size != l.size || m.Prot != l.prot {
			t.Fatalf("op %d: leaf %#x = %+v, want %+v", step, uint64(va), m, l)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("op %d: table has %d leaves, reference %d", step, i, len(want))
	}
	var per [3]uint64
	for _, va := range want {
		per[ref.leaves[va].size]++
	}
	if pt.Mapped4K != per[Page4K] || pt.Mapped2M != per[Page2M] || pt.Mapped1G != per[Page1G] {
		t.Fatalf("op %d: Mapped 4K/2M/1G = %d/%d/%d, want %v", step, pt.Mapped4K, pt.Mapped2M, pt.Mapped1G, per)
	}
	if pt.MapOps != ref.mapOps || pt.UnmapOps != ref.unmapOps || pt.SplitOps != ref.splitOps {
		t.Fatalf("op %d: Map/Unmap/Split ops = %d/%d/%d, want %d/%d/%d", step,
			pt.MapOps, pt.UnmapOps, pt.SplitOps, ref.mapOps, ref.unmapOps, ref.splitOps)
	}
	nodes := uint64(1) // the root counts from birth, materialized or not
	if pt.root != nil {
		nodes = countNodes(t, step, pt.root, levelPML4)
	}
	if pt.TablePages != nodes {
		t.Fatalf("op %d: TablePages = %d, %d nodes reachable", step, pt.TablePages, nodes)
	}
}

// countNodes returns the nodes reachable from n, failing on a node whose
// live count is not its present-slot count, an empty non-root node, or
// a leaf or child at a level where none can be.
func countNodes(t *testing.T, step int, n *node, level int) uint64 {
	t.Helper()
	nodes, present := uint64(1), 0
	for i := range n.slots {
		e := &n.slots[i]
		if !e.present {
			continue
		}
		present++
		switch {
		case e.leaf && level == levelPML4:
			t.Fatalf("op %d: leaf in a PML4 slot %d", step, i)
		case !e.leaf && level == levelPT:
			t.Fatalf("op %d: child table under PT slot %d", step, i)
		case !e.leaf:
			nodes += countNodes(t, step, e.child, level+1)
		}
	}
	if n.live != present {
		t.Fatalf("op %d: level-%d node live = %d, %d slots present", step, level, n.live, present)
	}
	if level != levelPML4 && present == 0 {
		t.Fatalf("op %d: empty level-%d table left in the tree", step, level)
	}
	return nodes
}

// Package pgtable implements x86-64 4-level page tables (PML4 → PDPT → PD
// → PT) as explicit radix-tree data structures. Mappings can be installed
// at 4KB (PT), 2MB (PD) and 1GB (PDPT) granularity, walked, protected,
// split and torn down, with table-page accounting — everything both the
// Linux-model fault handlers and HPMMAP's lightweight paging scheme need.
package pgtable

import (
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
)

// VirtAddr is a canonical 48-bit virtual address.
type VirtAddr uint64

// Prot is a permission bit set.
type Prot uint8

// Permission bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
	// ProtLocked marks the mapping as pinned in RAM (mlock).
	ProtLocked
)

// PageSize selects a mapping granularity.
type PageSize int

// Mapping granularities.
const (
	Page4K PageSize = iota
	Page2M
	Page1G
)

// Bytes returns the byte size of the page.
func (ps PageSize) Bytes() uint64 {
	switch ps {
	case Page4K:
		return mem.PageSize
	case Page2M:
		return mem.LargePageSize
	case Page1G:
		return mem.HugePageSize
	}
	// Programmer error: invalid PageSize constant from the caller.
	panic(fmt.Sprintf("pgtable: Bytes() with invalid PageSize %d (valid: Page4K, Page2M, Page1G)", ps))
}

func (ps PageSize) String() string {
	switch ps {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return "?"
}

// Levels of the radix tree, numbered from the root: 0=PML4, 1=PDPT, 2=PD,
// 3=PT. A 1GB mapping terminates at level 1, 2MB at level 2, 4KB at 3.
const (
	levelPML4 = 0
	levelPDPT = 1
	levelPD   = 2
	levelPT   = 3
	numLevels = 4
)

// shiftFor returns the address shift of the given level's index field.
func shiftFor(level int) uint { return uint(39 - 9*level) }

func indexAt(va VirtAddr, level int) int {
	return int((uint64(va) >> shiftFor(level)) & 0x1ff)
}

// levelFor returns the tree level at which a page of the given size maps.
func levelFor(ps PageSize) int {
	switch ps {
	case Page4K:
		return levelPT
	case Page2M:
		return levelPD
	case Page1G:
		return levelPDPT
	}
	// Programmer error: the caller passed a PageSize value that is not
	// one of the three declared constants.
	panic(fmt.Sprintf("pgtable: level lookup with invalid PageSize %d (valid: Page4K, Page2M, Page1G)", ps))
}

// entry is one slot of a table node. The word-sized fields come first
// so the three byte-sized ones pack into one trailing word: 24 bytes
// per entry, ~12KB per node.
type entry struct {
	pfn     mem.PFN
	child   *node
	present bool
	leaf    bool // terminal mapping (possibly large) rather than a child table
	prot    Prot
}

// node is one 4KB table page holding 512 entries.
type node struct {
	slots [512]entry
	live  int // number of present entries
}

// Table is one process address space's page-table tree.
type Table struct {
	root *node

	// Accounting, visible to cost models and tests.
	Mapped4K    uint64
	Mapped2M    uint64
	Mapped1G    uint64
	TablePages  uint64 // number of table nodes, including the root
	MapOps      uint64
	UnmapOps    uint64
	SplitOps    uint64
	WalkedSlots uint64 // total slots touched by Walk (hardware walk cost proxy)

	// Shared push handles installed by Instrument; nil (no-op) by
	// default, so uninstrumented walks pay only the nil checks.
	walks     *metrics.Counter
	walkDepth *metrics.Histogram
}

// New returns an empty address space. The root node is materialized on
// first Map: a node is 512 entries (~12KB), and aggregate-fidelity runs
// create page tables for every process and fork without ever mapping a
// page — eager roots were 70% of all simulator allocation (ISSUE 6).
// TablePages still counts the root from birth so accounting is unchanged.
func New() *Table {
	return &Table{TablePages: 1}
}

// Reset returns the table to its New() state so the struct can be
// recycled across process lifecycles (kernel.ExitReap). The node tree is
// dropped for the collector rather than scrubbed: roots are lazy, so a
// reset table is indistinguishable from a fresh one — the next Map
// materializes a clean root. Instrument handles are cleared too; owners
// re-instrument on reuse exactly as they do on creation.
func (t *Table) Reset() {
	*t = Table{TablePages: 1}
}

// rootNode returns the root, materializing it on first use.
func (t *Table) rootNode() *node {
	if t.root == nil {
		t.root = &node{}
	}
	return t.root
}

// MappedBytes returns the total bytes currently mapped.
func (t *Table) MappedBytes() uint64 {
	return t.Mapped4K*mem.PageSize + t.Mapped2M*mem.LargePageSize + t.Mapped1G*mem.HugePageSize
}

// MappedPages returns the number of leaf mappings of the given size.
func (t *Table) MappedPages(ps PageSize) uint64 {
	switch ps {
	case Page4K:
		return t.Mapped4K
	case Page2M:
		return t.Mapped2M
	default:
		return t.Mapped1G
	}
}

func checkAligned(va VirtAddr, ps PageSize) error {
	if uint64(va)%ps.Bytes() != 0 {
		return fmt.Errorf("pgtable: address %#x not aligned to %s", uint64(va), ps)
	}
	return nil
}

// Map installs a leaf mapping of the given size at va. It fails if any
// part of the range is already mapped (at any granularity) — callers
// unmap first, as the kernel does.
func (t *Table) Map(va VirtAddr, pfn mem.PFN, ps PageSize, prot Prot) error {
	if err := checkAligned(va, ps); err != nil {
		return err
	}
	target := levelFor(ps)
	n := t.rootNode()
	for level := 0; level < target; level++ {
		e := &n.slots[indexAt(va, level)]
		if e.present && e.leaf {
			return fmt.Errorf("pgtable: %#x already covered by a %s mapping", uint64(va), leafSize(level))
		}
		if !e.present {
			e.present = true
			e.leaf = false
			e.child = &node{}
			n.live++
			t.TablePages++
		}
		n = e.child
	}
	e := &n.slots[indexAt(va, target)]
	if e.present {
		if e.leaf {
			return fmt.Errorf("pgtable: %#x already mapped", uint64(va))
		}
		return fmt.Errorf("pgtable: %#x has smaller mappings below; unmap before mapping %s", uint64(va), ps)
	}
	e.present = true
	e.leaf = true
	e.pfn = pfn
	e.prot = prot
	n.live++
	t.MapOps++
	switch ps {
	case Page4K:
		t.Mapped4K++
	case Page2M:
		t.Mapped2M++
	case Page1G:
		t.Mapped1G++
	}
	return nil
}

func leafSize(level int) PageSize {
	switch level {
	case levelPDPT:
		return Page1G
	case levelPD:
		return Page2M
	default:
		return Page4K
	}
}

// Mapping describes the result of a successful walk.
type Mapping struct {
	PFN    mem.PFN
	Size   PageSize
	Prot   Prot
	Levels int // table levels traversed (hardware walk depth)
}

// Instrument installs shared push handles incremented by Walk: a walk
// counter and a walk-depth histogram (levels traversed per walk, the
// hardware walk-cost signal behind the paper's TLB argument). Handles
// may be nil (the no-op default) and are typically shared by every
// table on a node so per-process walks aggregate under one metric.
func (t *Table) Instrument(walks *metrics.Counter, depth *metrics.Histogram) {
	t.walks = walks
	t.walkDepth = depth
}

// Observe registers the table's accounting with the metrics registry as
// pull-mode gauges read at snapshot time: table pages and 4KB/large
// leaf counts. Registering several tables is additive. No-op on a nil
// registry.
func (t *Table) Observe(reg *metrics.Registry) {
	reg.GaugeFunc(metrics.PgtableTablePages, func() float64 { return float64(t.TablePages) })
	reg.GaugeFunc(metrics.PgtableMappedSmallPages, func() float64 { return float64(t.Mapped4K) })
	reg.GaugeFunc(metrics.PgtableMappedLargePages, func() float64 { return float64(t.Mapped2M + t.Mapped1G) })
}

// Walk resolves va. The boolean reports whether a mapping is present.
// Walk also accumulates the WalkedSlots counter used as a page-walk cost
// proxy by the TLB-miss model, and feeds the handles installed by
// Instrument.
func (t *Table) Walk(va VirtAddr) (Mapping, bool) {
	m, ok := t.walk(va)
	t.walks.Inc()
	t.walkDepth.Observe(uint64(m.Levels))
	return m, ok
}

func (t *Table) walk(va VirtAddr) (Mapping, bool) {
	if t.root == nil {
		// Same observable result as an empty root: one slot probed, miss
		// at the top level.
		t.WalkedSlots++
		return Mapping{Levels: 1}, false
	}
	n := t.root
	for level := 0; level < numLevels; level++ {
		t.WalkedSlots++
		e := &n.slots[indexAt(va, level)]
		if !e.present {
			return Mapping{Levels: level + 1}, false
		}
		if e.leaf {
			return Mapping{PFN: e.pfn, Size: leafSize(level), Prot: e.prot, Levels: level + 1}, true
		}
		n = e.child
	}
	// Simulated-state violation: a bottom-level entry was present but not
	// a leaf — the radix tree grew a level that cannot exist on x86-64.
	invariant.Failf("walk_off_tree", "pgtable",
		"walk(%#x) descended past the PT level without hitting a leaf", uint64(va))
	return Mapping{}, false // unreachable
}

// Translate returns the physical frame backing va along with the byte
// offset's frame, for convenience in data-path models.
func (t *Table) Translate(va VirtAddr) (mem.PFN, bool) {
	m, ok := t.Walk(va)
	if !ok {
		return 0, false
	}
	base := uint64(va) &^ (m.Size.Bytes() - 1)
	off := uint64(va) - base
	return m.PFN + mem.PFN(off/mem.PageSize), true
}

// Unmap removes the leaf mapping of the given size at va and returns its
// frame. It fails if the range is mapped at a different granularity.
func (t *Table) Unmap(va VirtAddr, ps PageSize) (mem.PFN, error) {
	if err := checkAligned(va, ps); err != nil {
		return 0, err
	}
	target := levelFor(ps)
	if t.root == nil {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	path := make([]*node, 0, numLevels)
	n := t.root
	for level := 0; level < target; level++ {
		path = append(path, n)
		e := &n.slots[indexAt(va, level)]
		if !e.present || e.leaf {
			return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
		}
		n = e.child
	}
	e := &n.slots[indexAt(va, target)]
	if !e.present || !e.leaf {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	pfn := e.pfn
	*e = entry{}
	n.live--
	t.UnmapOps++
	switch ps {
	case Page4K:
		t.Mapped4K--
	case Page2M:
		t.Mapped2M--
	case Page1G:
		t.Mapped1G--
	}
	// Prune empty tables bottom-up.
	for level := target - 1; level >= 0; level-- {
		parent := path[level]
		e := &parent.slots[indexAt(va, level)]
		if e.child.live > 0 {
			break
		}
		*e = entry{}
		parent.live--
		t.TablePages--
	}
	return pfn, nil
}

// Protect updates the permissions of the leaf covering va. Reports the
// mapping's size so callers can iterate ranges.
func (t *Table) Protect(va VirtAddr, prot Prot) (PageSize, error) {
	if t.root == nil {
		return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
	}
	n := t.root
	for level := 0; level < numLevels; level++ {
		e := &n.slots[indexAt(va, level)]
		if !e.present {
			return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
		}
		if e.leaf {
			e.prot = prot
			return leafSize(level), nil
		}
		n = e.child
	}
	// Simulated-state violation: same impossible shape as walk_off_tree,
	// reached through the protection-change path.
	invariant.Failf("protect_off_tree", "pgtable",
		"Protect(%#x) descended past the PT level without hitting a leaf", uint64(va))
	return 0, nil // unreachable
}

// Split2M replaces the 2MB leaf at va with a PT of 512 4KB leaves covering
// the same frames with the same protections — the operation THP performs
// when a large page must be pinned or partially unmapped. The new PT page
// is accounted.
func (t *Table) Split2M(va VirtAddr) error {
	if err := checkAligned(va, Page2M); err != nil {
		return err
	}
	if t.root == nil {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	n := t.root
	for level := 0; level < levelPD; level++ {
		e := &n.slots[indexAt(va, level)]
		if !e.present || e.leaf {
			return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
		}
		n = e.child
	}
	e := &n.slots[indexAt(va, levelPD)]
	if !e.present || !e.leaf {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	pt := &node{}
	for i := 0; i < 512; i++ {
		pt.slots[i] = entry{present: true, leaf: true, pfn: e.pfn + mem.PFN(i), prot: e.prot}
	}
	pt.live = 512
	e.leaf = false
	e.pfn = 0
	e.child = pt
	e.prot = 0
	t.TablePages++
	t.SplitOps++
	t.Mapped2M--
	t.Mapped4K += 512
	return nil
}

// Range calls fn for every leaf mapping with start address and mapping,
// in ascending address order. Returning false stops the iteration.
func (t *Table) Range(fn func(va VirtAddr, m Mapping) bool) {
	var walk func(n *node, level int, prefix uint64) bool
	walk = func(n *node, level int, prefix uint64) bool {
		for i := 0; i < 512; i++ {
			e := &n.slots[i]
			if !e.present {
				continue
			}
			va := prefix | uint64(i)<<shiftFor(level)
			if e.leaf {
				if !fn(VirtAddr(va), Mapping{PFN: e.pfn, Size: leafSize(level), Prot: e.prot, Levels: level + 1}) {
					return false
				}
				continue
			}
			if !walk(e.child, level+1, va) {
				return false
			}
		}
		return true
	}
	if t.root == nil {
		return
	}
	walk(t.root, 0, 0)
}

// UnmapRange removes every leaf mapping that starts inside
// [start, start+length). Mappings straddling the range boundary are not
// supported (callers align ranges to mapping boundaries, as the VMA layer
// guarantees): a leaf that starts before start is kept, one that starts
// inside the range is removed whole. Tables left empty are pruned, so the
// resulting tree is the one unmapping the same leaves one by one with
// Unmap produces.
func (t *Table) UnmapRange(start VirtAddr, length uint64) {
	lo, hi := uint64(start), uint64(start)+length
	if t.root == nil || hi <= lo {
		return
	}
	t.unmapRange(t.root, levelPML4, 0, lo, hi)
}

// unmapRange clears the leaves of n (whose slots start at base) that
// start in [lo, hi), descending only into the slots whose subtree
// intersects the range and pruning each child table it empties. The
// caller guarantees that n's span intersects [lo, hi).
//
//detsim:hotpath
func (t *Table) unmapRange(n *node, level int, base, lo, hi uint64) {
	shift := shiftFor(level)
	first, last := uint64(0), min(uint64(len(n.slots)-1), (hi-1-base)>>shift)
	if lo > base {
		first = (lo - base) >> shift
	}
	for i := first; i <= last; i++ {
		e := &n.slots[i]
		if !e.present {
			continue
		}
		va := base | i<<shift
		if !e.leaf {
			t.unmapRange(e.child, level+1, va, lo, hi)
			if e.child.live == 0 {
				if n.live <= 0 || t.TablePages <= 1 {
					t.underflow("prune", va, level, n)
				}
				*e = entry{}
				n.live--
				t.TablePages--
			}
			continue
		}
		if va < lo {
			continue // a large leaf that starts before the range
		}
		mapped := t.mappedAt(level)
		if n.live <= 0 || *mapped == 0 {
			t.underflow("leaf", va, level, n)
		}
		*e = entry{}
		n.live--
		*mapped--
		t.UnmapOps++
	}
}

// mappedAt returns the leaf counter of the size that maps at level.
func (t *Table) mappedAt(level int) *uint64 {
	switch level {
	case levelPDPT:
		return &t.Mapped1G
	case levelPD:
		return &t.Mapped2M
	default:
		return &t.Mapped4K
	}
}

// underflow reports a teardown that would drive a node's live count or
// a Mapped* counter below zero, or TablePages below the root.
func (t *Table) underflow(what string, va uint64, level int, n *node) {
	// Simulated-state violation: the counters disagree with the slots
	// they count — a present entry in a node that records none live, or
	// a leaf whose size class records no mappings.
	invariant.Failf("unmap_underflow", "pgtable",
		"UnmapRange %s at %#x (level %d): node live=%d, 4K=%d 2M=%d 1G=%d, tables=%d",
		what, va, level, n.live, t.Mapped4K, t.Mapped2M, t.Mapped1G, t.TablePages)
}

package pgtable

import (
	"testing"
	"testing/quick"

	"hpmmap/internal/invariant"
	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

func TestMapWalk4K(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1234, Page4K, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000)
	if !ok {
		t.Fatal("walk missed")
	}
	if m.PFN != 1234 || m.Size != Page4K || m.Prot != ProtRead|ProtWrite {
		t.Fatalf("mapping = %+v", m)
	}
	if m.Levels != 4 {
		t.Fatalf("4K walk depth %d, want 4", m.Levels)
	}
	if pt.Mapped4K != 1 || pt.MappedBytes() != mem.PageSize {
		t.Fatalf("accounting: %d pages, %d bytes", pt.Mapped4K, pt.MappedBytes())
	}
	// Root + PDPT + PD + PT.
	if pt.TablePages != 4 {
		t.Fatalf("table pages %d, want 4", pt.TablePages)
	}
}

func TestMapWalk2M(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 512, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000 + 0x1000)
	if !ok {
		t.Fatal("walk inside 2MB page missed")
	}
	if m.Size != Page2M || m.Levels != 3 {
		t.Fatalf("mapping = %+v", m)
	}
	if pt.TablePages != 3 {
		t.Fatalf("table pages %d, want 3 (no PT needed)", pt.TablePages)
	}
	pfn, ok := pt.Translate(0x4000_0000 + 5*mem.PageSize)
	if !ok || pfn != 512+5 {
		t.Fatalf("Translate = %d, %v", pfn, ok)
	}
}

func TestMapWalk1G(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 0, Page1G, ProtRead); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000 + mem.LargePageSize)
	if !ok || m.Size != Page1G || m.Levels != 2 {
		t.Fatalf("1G walk = %+v, %v", m, ok)
	}
}

func TestMapAlignmentEnforced(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 0, Page2M, ProtRead); err == nil {
		t.Fatal("misaligned 2MB map accepted")
	}
	if err := pt.Map(0x123, 0, Page4K, ProtRead); err == nil {
		t.Fatal("misaligned 4K map accepted")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0, 2, Page4K, ProtRead); err == nil {
		t.Fatal("double map accepted")
	}
	// 2MB over existing 4K region must fail.
	if err := pt.Map(0, 3, Page2M, ProtRead); err == nil {
		t.Fatal("2MB map over 4K mappings accepted")
	}
	// 4K under existing 2MB leaf must fail.
	if err := pt.Map(0x4000_0000, 4, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000_0000+0x1000, 5, Page4K, ProtRead); err == nil {
		t.Fatal("4K map under a 2MB leaf accepted")
	}
}

func TestWalkMiss(t *testing.T) {
	pt := New()
	if _, ok := pt.Walk(0xdead000); ok {
		t.Fatal("walk on empty table hit")
	}
	if _, ok := pt.Translate(0xdead000); ok {
		t.Fatal("translate on empty table hit")
	}
}

func TestUnmapReturnsFrameAndPrunes(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 777, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	pfn, err := pt.Unmap(0x4000_0000, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 777 {
		t.Fatalf("unmap returned pfn %d", pfn)
	}
	if _, ok := pt.Walk(0x4000_0000); ok {
		t.Fatal("walk hit after unmap")
	}
	if pt.TablePages != 1 {
		t.Fatalf("table pages %d after prune, want 1 (root only)", pt.TablePages)
	}
	if pt.Mapped4K != 0 {
		t.Fatalf("mapped4K = %d", pt.Mapped4K)
	}
}

func TestUnmapWrongSizeFails(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x4000_0000, Page4K); err == nil {
		t.Fatal("unmap 4K of a 2MB leaf succeeded")
	}
	if _, err := pt.Unmap(0x5000_0000, Page2M); err == nil {
		t.Fatal("unmap of unmapped address succeeded")
	}
}

func TestPrunePreservesSiblings(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000_1000, 2, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x4000_0000, Page4K); err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.Walk(0x4000_1000); !ok {
		t.Fatal("sibling mapping lost after unmap")
	}
	if pt.TablePages != 4 {
		t.Fatalf("table pages %d, want 4 (PT still live)", pt.TablePages)
	}
}

func TestProtect(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	ps, err := pt.Protect(0x4000_0000+0x1000, ProtRead|ProtWrite|ProtLocked)
	if err != nil {
		t.Fatal(err)
	}
	if ps != Page2M {
		t.Fatalf("Protect size %v", ps)
	}
	m, _ := pt.Walk(0x4000_0000)
	if m.Prot != ProtRead|ProtWrite|ProtLocked {
		t.Fatalf("prot = %v", m.Prot)
	}
	if _, err := pt.Protect(0x9000_0000, ProtRead); err == nil {
		t.Fatal("protect of unmapped address succeeded")
	}
}

func TestSplit2M(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1000, Page2M, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	before := pt.TablePages
	if err := pt.Split2M(0x4000_0000); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages != before+1 {
		t.Fatalf("split did not add a PT page")
	}
	if pt.Mapped2M != 0 || pt.Mapped4K != 512 {
		t.Fatalf("accounting after split: 2M=%d 4K=%d", pt.Mapped2M, pt.Mapped4K)
	}
	// Every 4K piece maps to the right frame with the same prot.
	for i := uint64(0); i < 512; i++ {
		m, ok := pt.Walk(VirtAddr(0x4000_0000 + i*mem.PageSize))
		if !ok || m.Size != Page4K || m.PFN != mem.PFN(1000+i) || m.Prot != ProtRead|ProtWrite {
			t.Fatalf("piece %d: %+v, %v", i, m, ok)
		}
	}
	// Total mapped bytes unchanged.
	if pt.MappedBytes() != mem.LargePageSize {
		t.Fatalf("mapped bytes %d", pt.MappedBytes())
	}
}

func TestSplit2MRejectsNon2M(t *testing.T) {
	pt := New()
	if err := pt.Split2M(0x4000_0000); err == nil {
		t.Fatal("split of unmapped address succeeded")
	}
	if err := pt.Map(0x4000_0000, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split2M(0x4000_0000); err == nil {
		t.Fatal("split of 4K region succeeded")
	}
	if err := pt.Split2M(0x4000_0123); err == nil {
		t.Fatal("split of misaligned address succeeded")
	}
}

func TestRangeOrdered(t *testing.T) {
	pt := New()
	addrs := []VirtAddr{0x7000_0000_0000, 0x4000_0000, 0x4020_0000, 0x1000}
	for i, va := range addrs {
		ps := Page4K
		if uint64(va)%mem.LargePageSize == 0 {
			ps = Page2M
		}
		if err := pt.Map(va, mem.PFN(i), ps, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	var got []VirtAddr
	pt.Range(func(va VirtAddr, m Mapping) bool {
		got = append(got, va)
		return true
	})
	if len(got) != 4 {
		t.Fatalf("Range visited %d mappings", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Range not ascending: %v", got)
		}
	}
	// Early stop.
	count := 0
	pt.Range(func(va VirtAddr, m Mapping) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestUnmapRange(t *testing.T) {
	pt := New()
	base := VirtAddr(0x4000_0000)
	for i := uint64(0); i < 8; i++ {
		if err := pt.Map(base+VirtAddr(i*mem.LargePageSize), mem.PFN(i*512), Page2M, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	pt.UnmapRange(base+VirtAddr(2*mem.LargePageSize), 3*mem.LargePageSize)
	if pt.UnmapOps != 3 {
		t.Fatalf("UnmapOps = %d, want 3", pt.UnmapOps)
	}
	if pt.Mapped2M != 5 || pt.Mapped4K != 0 || pt.Mapped1G != 0 {
		t.Fatalf("remaining mappings 4K=%d 2M=%d 1G=%d, want 2M=5", pt.Mapped4K, pt.Mapped2M, pt.Mapped1G)
	}
	// Root + PDPT + PD: the PD still holds five leaves.
	if pt.TablePages != 3 {
		t.Fatalf("table pages %d, want 3", pt.TablePages)
	}
	for i := uint64(0); i < 8; i++ {
		va := base + VirtAddr(i*mem.LargePageSize)
		m, ok := pt.Walk(va)
		if i >= 2 && i < 5 {
			if ok {
				t.Fatalf("unmapped address %#x still walks", uint64(va))
			}
			continue
		}
		if !ok || m.Size != Page2M || m.PFN != mem.PFN(i*512) {
			t.Fatalf("surviving mapping at %#x = %+v, %v", uint64(va), m, ok)
		}
	}
}

func TestUnmapRangePrunesAndKeepsStraddlers(t *testing.T) {
	pt := New()
	// A 2MB leaf starting before the range survives; the 4KB leaves of
	// two PTs inside it go, and so do both PTs and their PD.
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		if err := pt.Map(VirtAddr(0x8000_0000+i*mem.PageSize), mem.PFN(i), Page4K, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	// Root + PDPT + two PDs + two PTs.
	if pt.TablePages != 6 {
		t.Fatalf("table pages %d before teardown, want 6", pt.TablePages)
	}
	pt.UnmapRange(0x4000_1000, 0x8000_0000)
	if pt.UnmapOps != 1024 || pt.Mapped4K != 0 || pt.Mapped2M != 1 {
		t.Fatalf("after teardown: ops=%d 4K=%d 2M=%d", pt.UnmapOps, pt.Mapped4K, pt.Mapped2M)
	}
	if pt.TablePages != 3 {
		t.Fatalf("table pages %d after teardown, want 3 (emptied PD and PTs pruned)", pt.TablePages)
	}
	if m, ok := pt.Walk(0x4000_0000); !ok || m.PFN != 1 {
		t.Fatalf("straddling 2MB leaf lost: %+v, %v", m, ok)
	}
	// Empty, wrapped and out-of-space ranges remove nothing.
	pt.UnmapRange(0x4000_0000, 0)
	pt.UnmapRange(0x4000_0000, ^uint64(0))
	pt.UnmapRange(1<<48, 1<<30)
	if pt.Mapped2M != 1 || pt.UnmapOps != 1024 {
		t.Fatalf("no-op ranges unmapped: 2M=%d ops=%d", pt.Mapped2M, pt.UnmapOps)
	}
	pt.UnmapRange(0, 1<<48)
	if pt.MappedBytes() != 0 || pt.TablePages != 1 {
		t.Fatalf("full teardown left %d bytes, %d table pages", pt.MappedBytes(), pt.TablePages)
	}
	// A never-mapped table is a no-op.
	empty := New()
	empty.UnmapRange(0, 1<<48)
	if empty.TablePages != 1 || empty.UnmapOps != 0 {
		t.Fatalf("empty table teardown: %+v", empty)
	}
}

func TestUnmapRangeUnderflowFails(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	pt.Mapped2M = 0 // counters out of step with the slots
	defer func() {
		v, ok := invariant.FromRecovered(recover())
		if !ok || v.Check != "unmap_underflow" || v.Subsystem != "pgtable" {
			t.Fatalf("UnmapRange on a corrupted table raised %+v, want an unmap_underflow violation", v)
		}
	}()
	pt.UnmapRange(0x4000_0000, mem.LargePageSize)
}

func TestUnmapRangeAllocFree(t *testing.T) {
	f := newStraddleFixture(t)
	allocs := testing.AllocsPerRun(20, func() {
		f.pt.UnmapRange(straddleBase, mem.LargePageSize)
		f.restore()
	})
	if allocs != 0 {
		t.Fatalf("UnmapRange cycle allocates %.1f times per run, want 0", allocs)
	}
}

// Property: map/walk/unmap round-trips across random canonical addresses
// and page sizes.
func TestMapUnmapRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		pt := New()
		type m struct {
			va VirtAddr
			ps PageSize
			pf mem.PFN
		}
		live := map[VirtAddr]m{}
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.Bool(0.6) {
				ps := PageSize(r.Intn(3))
				va := VirtAddr(r.Uint64n(1<<47)) &^ VirtAddr(ps.Bytes()-1)
				pf := mem.PFN(r.Uint64n(1 << 30))
				if pt.Map(va, pf, ps, ProtRead|ProtWrite) == nil {
					live[va] = m{va, ps, pf}
				}
			} else {
				for _, v := range live {
					pfn, err := pt.Unmap(v.va, v.ps)
					if err != nil || pfn != v.pf {
						t.Logf("seed %d: unmap %+v: %v pfn=%d", seed, v, err, pfn)
						return false
					}
					delete(live, v.va)
					break
				}
			}
		}
		for _, v := range live {
			got, ok := pt.Walk(v.va)
			if !ok || got.PFN != v.pf || got.Size != v.ps {
				t.Logf("seed %d: walk %+v got %+v %v", seed, v, got, ok)
				return false
			}
		}
		// Tear everything down; the tree must shrink to just the root.
		for _, v := range live {
			if _, err := pt.Unmap(v.va, v.ps); err != nil {
				t.Logf("seed %d: final unmap: %v", seed, err)
				return false
			}
		}
		return pt.TablePages == 1 && pt.MappedBytes() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkedSlotsAccumulates(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	pt.WalkedSlots = 0
	pt.Walk(0)
	if pt.WalkedSlots != 4 {
		t.Fatalf("4K walk touched %d slots, want 4", pt.WalkedSlots)
	}
	pt2 := New()
	if err := pt2.Map(0, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	pt2.WalkedSlots = 0
	pt2.Walk(0)
	if pt2.WalkedSlots != 3 {
		t.Fatalf("2MB walk touched %d slots, want 3", pt2.WalkedSlots)
	}
}

func TestPageSizeBytes(t *testing.T) {
	if Page4K.Bytes() != 4096 || Page2M.Bytes() != 2<<20 || Page1G.Bytes() != 1<<30 {
		t.Fatal("PageSize.Bytes wrong")
	}
	if Page4K.String() != "4KB" || Page2M.String() != "2MB" || Page1G.String() != "1GB" {
		t.Fatal("PageSize.String wrong")
	}
}

package pgtable

import (
	"testing"

	"hpmmap/internal/mem"
)

func BenchmarkMapUnmap4K(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := VirtAddr(uint64(i%4096) * mem.PageSize)
		if err := t.Map(va, mem.PFN(i), Page4K, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unmap(va, Page4K); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapUnmap2M(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := VirtAddr(uint64(i%512) * mem.LargePageSize)
		if err := t.Map(va, mem.PFN(i*512), Page2M, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unmap(va, Page2M); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkHit(b *testing.B) {
	t := New()
	for i := 0; i < 512; i++ {
		if err := t.Map(VirtAddr(uint64(i)*mem.LargePageSize), mem.PFN(i*512), Page2M, ProtRead); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Walk(VirtAddr(uint64(i%512) * mem.LargePageSize)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSplit2M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := New()
		if err := t.Map(0, 0, Page2M, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := t.Split2M(0); err != nil {
			b.Fatal(err)
		}
	}
}

// straddleBase starts a 2MB range of 4KB leaves that covers the upper
// half of one PT and the lower half of the next, so tearing it down
// clears 512 leaves and prunes no table.
const straddleBase = VirtAddr(0x1000_0000 + mem.LargePageSize/2)

// straddleFixture is a table with several mapped regions (2MB leaves, a
// 1GB leaf in another PML4 slot, and 4MB of 4KB leaves around
// straddleBase) plus snapshots of the two PTs under straddleBase, so a
// teardown of the straddling range can be undone without allocating.
type straddleFixture struct {
	pt    *Table
	pts   [2]*node
	saved [2]node
}

func newStraddleFixture(tb testing.TB) *straddleFixture {
	tb.Helper()
	f := &straddleFixture{pt: New()}
	for i := uint64(0); i < 8; i++ {
		if err := f.pt.Map(VirtAddr(0x4000_0000+i*mem.LargePageSize), mem.PFN(i*512), Page2M, ProtRead); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.pt.Map(0x80_0000_0000, 1<<20, Page1G, ProtRead); err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		if err := f.pt.Map(VirtAddr(0x1000_0000+i*mem.PageSize), mem.PFN(1<<21+i), Page4K, ProtRead|ProtWrite); err != nil {
			tb.Fatal(err)
		}
	}
	pd := f.pt.root.slots[0].child.slots[0].child
	for i := range f.pts {
		f.pts[i] = pd.slots[indexAt(straddleBase, levelPD)+i].child
		f.saved[i] = *f.pts[i]
	}
	return f
}

// restore puts back the 512 leaves a teardown of the straddling range
// cleared.
func (f *straddleFixture) restore() {
	for i := range f.pts {
		*f.pts[i] = f.saved[i]
	}
	f.pt.Mapped4K += 512
}

// BenchmarkUnmapRange tears down one 2MB range of 4KB leaves in a
// populated table (munmap of a small-page region in Detail mode). Each
// op then restores the leaves by copying back the two PT snapshots, a
// 24KB copy that allocates nothing; the op must report 0 allocs.
func BenchmarkUnmapRange(b *testing.B) {
	f := newStraddleFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pt.UnmapRange(straddleBase, mem.LargePageSize)
		f.restore()
	}
	if f.pt.Mapped4K != 1024 {
		b.Fatalf("Mapped4K = %d after the last restore, want 1024", f.pt.Mapped4K)
	}
}

package mem

import (
	"fmt"
	"slices"
	"testing"

	"hpmmap/internal/invariant"
)

// runTwin drives two identical zones through the same work: run holds
// the run-shaped calls (AllocRun, FreeRun), ref the per-block sequence
// they stand for (AllocPages, FreeBlock). Single AllocPages/FreeBlock
// calls go to both. After every step the twins must be in the same
// allocator state, item order and slot index included.
type runTwin struct {
	t        testing.TB
	run, ref *Zone
	live     []liveRun // allocated runs, in allocation order
}

type liveRun struct {
	p     PFN
	n     uint64
	order int
}

func newRunTwin(t testing.TB, pages, offlineBytes uint64) *runTwin {
	tw := &runTwin{t: t, run: NewZone(0, 0, pages), ref: NewZone(0, 0, pages)}
	if offlineBytes > 0 {
		a, errA := tw.run.Offline(offlineBytes)
		b, errB := tw.ref.Offline(offlineBytes)
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			t.Fatalf("offline diverged: %v %v / %v %v", a, errA, b, errB)
		}
	}
	tw.check("boot")
	return tw
}

// check fails the test unless both zones hold the same free lists (items
// in order and the slot index), free-page count and statistics, and the
// run zone passes its full invariant check.
func (tw *runTwin) check(step string) {
	tw.t.Helper()
	for o := 0; o <= MaxOrder; o++ {
		a, b := tw.run.free[o], tw.ref.free[o]
		if !slices.Equal(a.items, b.items) {
			tw.t.Fatalf("%s: order %d items differ:\n run %v\n ref %v", step, o, a.items, b.items)
		}
		if !slices.Equal(a.idx, b.idx) {
			tw.t.Fatalf("%s: order %d slot index differs", step, o)
		}
	}
	if a, b := zoneCounters(tw.run), zoneCounters(tw.ref); a != b {
		tw.t.Fatalf("%s: counters differ: run %v ref %v (freePages Allocs Frees Splits Merges Failures)", step, a, b)
	}
	if err := tw.run.CheckInvariants(); err != nil {
		tw.t.Fatalf("%s: %v", step, err)
	}
}

func zoneCounters(z *Zone) [6]uint64 {
	return [6]uint64{z.freePages, z.Allocs, z.Frees, z.Splits, z.Merges, z.Failures}
}

// allocRun takes up to max blocks of the order through AllocRun calls,
// mirroring each returned run with per-block AllocPages on the twin.
func (tw *runTwin) allocRun(order int, max uint64) {
	tw.t.Helper()
	for max > 0 {
		p, n, ok := tw.run.AllocRun(order, max)
		if !ok {
			if tw.ref.CanAlloc(order) {
				tw.t.Fatalf("AllocRun(%d) stopped while an order-%d block is free", order, order)
			}
			return
		}
		if n == 0 || n > max {
			tw.t.Fatalf("AllocRun(%d, %d) returned %d blocks", order, max, n)
		}
		for i := uint64(0); i < n; i++ {
			q, ok := tw.ref.AllocPages(order)
			if want := p + PFN(i<<uint(order)); !ok || q != want {
				tw.t.Fatalf("AllocRun(%d) run [%d,+%d): per-block alloc %d gave %d ok=%v", order, p, n, i, q, ok)
			}
		}
		tw.live = append(tw.live, liveRun{p: p, n: n, order: order})
		max -= n
		tw.check(fmt.Sprintf("AllocRun(%d) -> [%d,+%d)", order, p, n))
	}
}

// release removes blocks [s, s+l) from live run i, keeping any remainder
// on either side, and returns the first freed frame.
func (tw *runTwin) release(i int, s, l uint64) PFN {
	r := tw.live[i]
	tw.live = slices.Delete(tw.live, i, i+1)
	if s > 0 {
		tw.live = append(tw.live, liveRun{p: r.p, n: s, order: r.order})
	}
	if s+l < r.n {
		tw.live = append(tw.live, liveRun{p: r.p + PFN((s+l)<<uint(r.order)), n: r.n - s - l, order: r.order})
	}
	return r.p + PFN(s<<uint(r.order))
}

// freeRun frees l blocks of live run i starting at block s: one FreeRun
// on the run zone, ascending FreeBlocks on the twin.
func (tw *runTwin) freeRun(i int, s, l uint64) {
	tw.t.Helper()
	order := tw.live[i].order
	p := tw.release(i, s, l)
	tw.run.FreeRun(p, l, order)
	for j := uint64(0); j < l; j++ {
		tw.ref.FreeBlock(p+PFN(j<<uint(order)), order)
	}
	tw.check(fmt.Sprintf("FreeRun(%d, %d, order %d)", p, l, order))
}

func (tw *runTwin) allocOne(order int) {
	tw.t.Helper()
	p, ok := tw.run.AllocPages(order)
	q, ok2 := tw.ref.AllocPages(order)
	if p != q || ok != ok2 {
		tw.t.Fatalf("AllocPages(%d) diverged: %d,%v vs %d,%v", order, p, ok, q, ok2)
	}
	if ok {
		tw.live = append(tw.live, liveRun{p: p, n: 1, order: order})
	}
	tw.check(fmt.Sprintf("AllocPages(%d)", order))
}

func (tw *runTwin) freeOne(i int, b uint64) {
	tw.t.Helper()
	order := tw.live[i].order
	p := tw.release(i, b, 1)
	tw.run.FreeBlock(p, order)
	tw.ref.FreeBlock(p, order)
	tw.check(fmt.Sprintf("FreeBlock(%d, %d)", p, order))
}

// doubleFree frees, as one run of unit order u, the aligned block of
// order e enclosing the free block f of order o (u <= o <= e). Some of
// it is already free, so FreeRun must fail with free_list_double_push.
func (tw *runTwin) doubleFree(f PFN, o, u, e int) {
	tw.t.Helper()
	base := tw.run.Base + PFN(uint64(f-tw.run.Base)&^(PagesPerOrder(e)-1))
	v := recoverViolation(func() { tw.run.FreeRun(base, PagesPerOrder(e-u), u) })
	if v == nil || v.Check != "free_list_double_push" {
		tw.t.Fatalf("FreeRun(%d, 2^%d blocks of order %d) over free block %d (order %d): got %v, want free_list_double_push",
			base, e-u, u, f, o, v)
	}
}

func recoverViolation(fn func()) (v *invariant.Violation) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if v, ok = invariant.FromRecovered(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// FuzzRunEquivalence checks that AllocRun and FreeRun leave a zone in
// exactly the state of the per-block AllocPages/FreeBlock sequences they
// replace. Input: byte 0 selects the zone (bit 0: two sections, one of
// them offlined first; else four max-order blocks), then 4-byte ops
// [op, a, b, c]:
//
//	0: AllocRun loop, order a%12, up to 1+c blocks
//	1: FreeRun of blocks [b%n, +1+c%(n-s)) of live run a
//	2: single AllocPages(a%12) on both zones
//	3: single FreeBlock of block b%n of live run a
//	4: double free over a free block; must fail, ends the input
//
// Ops past the first maxFuzzOps are ignored, which bounds the cost of
// one input.
const maxFuzzOps = 128

func FuzzRunEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 255, 1, 0, 0, 255})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 3, 0, 40, 1, 1, 3, 7, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pages, offline := 4*PagesPerOrder(MaxOrder), uint64(0)
		if data[0]&1 != 0 {
			pages, offline = 2*SectionSize/PageSize, SectionSize
		}
		tw := newRunTwin(t, pages, offline)
		ops := data[1:]
		ops = ops[:min(len(ops), 4*maxFuzzOps)]
		for ; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0]%5, int(ops[1]), uint64(ops[2]), uint64(ops[3])
			switch op {
			case 0:
				tw.allocRun(a%(MaxOrder+1), 1+c)
			case 1:
				if len(tw.live) == 0 {
					continue
				}
				i := a % len(tw.live)
				n := tw.live[i].n
				s := b % n
				tw.freeRun(i, s, 1+c%(n-s))
			case 2:
				tw.allocOne(a % (MaxOrder + 1))
			case 3:
				if len(tw.live) == 0 {
					continue
				}
				i := a % len(tw.live)
				tw.freeOne(i, b%tw.live[i].n)
			case 4:
				for d := 0; d <= MaxOrder; d++ {
					o := (a + d) % (MaxOrder + 1)
					items := tw.run.free[o].items
					if len(items) == 0 {
						continue
					}
					u := o - int(c)%(o+1)
					e := o + int(c>>4)%(MaxOrder-o+1)
					tw.doubleFree(items[b%uint64(len(items))], o, u, e)
					return
				}
			}
		}
	})
}

func TestAllocRunTakesWholeBlock(t *testing.T) {
	tw := newRunTwin(t, 4*PagesPerOrder(MaxOrder), 0)
	items := tw.run.free[MaxOrder].items
	top := items[len(items)-1]
	p, n, ok := tw.run.AllocRun(3, 1000)
	if !ok || p != top || n != PagesPerOrder(MaxOrder-3) {
		t.Fatalf("AllocRun(3, 1000) = %d,%d,%v; want the top max-order block %d whole", p, n, ok, top)
	}
	if tw.run.Allocs != n || tw.run.Splits != n-1 {
		t.Fatalf("Allocs %d Splits %d after one whole block of %d", tw.run.Allocs, tw.run.Splits, n)
	}
	// A run shorter than the lowest free block is one ordinary split.
	tw = newRunTwin(t, 4*PagesPerOrder(MaxOrder), 0)
	tw.allocRun(3, 5)
	// A split, whole blocks of orders 3 and 4, then a split at order 5.
	if len(tw.live) != 4 {
		t.Fatalf("5 blocks came as %d runs: %v", len(tw.live), tw.live)
	}
}

func TestAllocRunStopsWithoutFailing(t *testing.T) {
	z := NewZone(0, 0, PagesPerOrder(MaxOrder))
	if _, n, ok := z.AllocRun(0, PagesPerOrder(MaxOrder)); !ok || n != PagesPerOrder(MaxOrder) {
		t.Fatalf("whole-zone run: n=%d ok=%v", n, ok)
	}
	if _, _, ok := z.AllocRun(0, 1); ok {
		t.Fatal("AllocRun succeeded on an exhausted zone")
	}
	if z.Failures != 0 {
		t.Fatalf("AllocRun counted %d failures", z.Failures)
	}
}

func TestFreeRunOverFreeBlockPanics(t *testing.T) {
	tw := newRunTwin(t, 4*PagesPerOrder(MaxOrder), 0)
	tw.allocRun(3, 64) // one order-9 block, 64 order-3 blocks
	tw.freeOne(0, 17)  // block 17 is free again
	r := tw.live[0]    // blocks [0, 17)
	v := recoverViolation(func() { tw.run.FreeRun(r.p, 64, 3) })
	if v == nil || v.Check != "free_list_double_push" {
		t.Fatalf("FreeRun over a free block: got %v, want free_list_double_push", v)
	}
}

func TestNodeFreeRunRoutesToOwningZone(t *testing.T) {
	run := NewNodeMemory(2, 2*BytesPerOrder(MaxOrder))
	ref := NewNodeMemory(2, 2*BytesPerOrder(MaxOrder))
	for _, nm := range []*NodeMemory{run, ref} {
		for _, z := range nm.Zones {
			if _, n, ok := z.AllocRun(3, 1<<20); !ok || n != PagesPerOrder(MaxOrder-3) {
				t.Fatalf("zone %d: could not take its block whole", z.ID)
			}
		}
	}
	// 100 blocks from the start of zone 1: 64 + 32 + 4 as whole blocks.
	start := run.Zones[1].Base
	run.FreeRun(start, 100, 3)
	for i := PFN(0); i < 100; i++ {
		ref.Free(start+i<<3, 3)
	}
	for zi := range run.Zones {
		a, b := run.Zones[zi], ref.Zones[zi]
		for o := 0; o <= MaxOrder; o++ {
			if !slices.Equal(a.FreeList(o), b.FreeList(o)) {
				t.Fatalf("zone %d order %d: run %v ref %v", zi, o, a.FreeList(o), b.FreeList(o))
			}
		}
		if zoneCounters(a) != zoneCounters(b) {
			t.Fatalf("zone %d counters: run %v ref %v", zi, zoneCounters(a), zoneCounters(b))
		}
	}
	// A run straddling the zone boundary is a bookkeeping error, not a
	// silent split.
	v := recoverViolation(func() { run.FreeRun(start-8, 2, 3) })
	if v == nil || v.Check != "free_outside_zone" {
		t.Fatalf("straddling FreeRun: got %v, want free_outside_zone", v)
	}
}

func TestRunOrderOutOfRangePanics(t *testing.T) {
	z := NewZone(0, 0, PagesPerOrder(MaxOrder))
	for name, fn := range map[string]func(){
		"AllocRun(-1)":         func() { z.AllocRun(-1, 1) },
		"AllocRun(MaxOrder+1)": func() { z.AllocRun(MaxOrder+1, 1) },
		"FreeRun(-1)":          func() { z.FreeRun(0, 1, -1) },
		"FreeRun(MaxOrder+1)":  func() { z.FreeRun(0, 1, MaxOrder+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

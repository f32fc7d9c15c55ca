package kernel

import (
	"slices"
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

// blocksOf expands a queue's runs into its blocks, oldest first.
func blocksOf(q *pcQueue) []mem.PFN {
	var out []mem.PFN
	for _, r := range q.runs[q.head:] {
		for i := uint64(0); i < r.n; i++ {
			out = append(out, r.pfn+mem.PFN(i<<pcOrder))
		}
	}
	return out
}

// popBlocks pops count blocks, possibly across several runs, and
// returns them in order.
func popBlocks(t *testing.T, q *pcQueue, count int) []mem.PFN {
	t.Helper()
	var out []mem.PFN
	for count > 0 {
		r, ok := q.popFront(count)
		if !ok || r.n == 0 || int(r.n) > count {
			t.Fatalf("popFront(%d) = %+v, %v", count, r, ok)
		}
		for i := uint64(0); i < r.n; i++ {
			out = append(out, r.pfn+mem.PFN(i<<pcOrder))
		}
		count -= int(r.n)
	}
	return out
}

func checkQueueLen(t *testing.T, q *pcQueue) {
	t.Helper()
	if got := len(blocksOf(q)); q.len() != got {
		t.Fatalf("len() = %d, runs hold %d blocks", q.len(), got)
	}
}

func TestPCQueueMergesContiguousPushes(t *testing.T) {
	var q pcQueue
	q.push(0, 1)
	q.push(8, 2)  // contiguous: extends the run
	q.push(24, 1) // contiguous again
	q.push(64, 1) // gap: new run
	q.push(56, 1) // below the newest run: new run, never merged backwards
	if len(q.runs) != 3 || q.runs[0] != (pcRun{pfn: 0, n: 4}) {
		t.Fatalf("runs %+v, want [{0 4} {64 1} {56 1}]", q.runs)
	}
	checkQueueLen(t, &q)
	if q.len() != 6 {
		t.Fatalf("len %d, want 6", q.len())
	}
}

func TestPCQueuePopSplitsAndCrossesRuns(t *testing.T) {
	var q pcQueue
	q.push(0, 4)
	q.push(800, 2)
	q.push(1600, 3)
	if got := popBlocks(t, &q, 3); !slices.Equal(got, []mem.PFN{0, 8, 16}) {
		t.Fatalf("first pop %v", got)
	}
	if q.runs[q.head] != (pcRun{pfn: 24, n: 1}) {
		t.Fatalf("split remainder %+v, want {24 1}", q.runs[q.head])
	}
	checkQueueLen(t, &q)
	// Cross the remainder, the whole second run and into the third.
	if got := popBlocks(t, &q, 4); !slices.Equal(got, []mem.PFN{24, 800, 808, 1600}) {
		t.Fatalf("second pop %v", got)
	}
	checkQueueLen(t, &q)
	if got := popBlocks(t, &q, 2); !slices.Equal(got, []mem.PFN{1608, 1616}) {
		t.Fatalf("last pop %v", got)
	}
	if _, ok := q.popFront(1); ok || q.len() != 0 || len(q.runs) != 0 || q.head != 0 {
		t.Fatalf("drained queue not reset: %+v", q)
	}
}

func TestPCQueueCompactsIntoDeadFront(t *testing.T) {
	var q pcQueue
	for i := 0; i < 4; i++ {
		q.push(mem.PFN(i*100), 1) // never contiguous
	}
	for len(q.runs) < cap(q.runs) {
		q.push(mem.PFN(len(q.runs)*100), 1)
	}
	backing := &q.runs[:1][0]
	popBlocks(t, &q, 2)
	want := blocksOf(&q)
	q.push(99999, 1) // full with a dead front: compacts instead of growing
	if q.head != 0 || &q.runs[0] != backing {
		t.Fatalf("push at capacity reallocated (head %d)", q.head)
	}
	if got := blocksOf(&q); !slices.Equal(got, append(want, 99999)) {
		t.Fatalf("after compaction %v, want %v", got, append(want, 99999))
	}
	checkQueueLen(t, &q)
}

// pcRef is the per-block page cache the run-based one must match: one
// block per queue entry, each allocated and freed by its own
// AllocPages/Free call.
type pcRef struct {
	cfg     MachineConfig
	mem     *mem.NodeMemory
	queue   [][]mem.PFN
	pcPages []uint64

	allocFails, reclaimed, kswapdRuns uint64
}

func newPCRef(cfg MachineConfig) *pcRef {
	return &pcRef{
		cfg:     cfg,
		mem:     mem.NewNodeMemory(cfg.NumaZones, cfg.MemoryBytes),
		queue:   make([][]mem.PFN, cfg.NumaZones),
		pcPages: make([]uint64, cfg.NumaZones),
	}
}

func (r *pcRef) gated(zid int) (mem.PFN, *mem.Zone, bool) {
	z := r.mem.Zones[zid%len(r.mem.Zones)]
	if z.FreePages() < z.WatermarkLow+mem.PagesPerOrder(pcOrder) {
		return 0, nil, false
	}
	pfn, ok := z.AllocPages(pcOrder)
	return pfn, z, ok
}

func (r *pcRef) add(zone int, bytes uint64) {
	blocks := bytes / (mem.PageSize << pcOrder)
	if blocks == 0 {
		blocks = 1
	}
	for i := uint64(0); i < blocks; i++ {
		pfn, z, ok := r.gated(zone)
		if !ok {
			pfn, z, ok = r.gated(zone + 1)
		}
		if !ok {
			r.allocFails++
			if !r.dropOne() {
				return
			}
			pfn, z, ok = r.mem.Alloc(zone, pcOrder)
			if !ok {
				return
			}
		}
		r.queue[z.ID] = append(r.queue[z.ID], pfn)
		r.pcPages[z.ID] += 1 << pcOrder
	}
}

func (r *pcRef) dropOne() bool {
	best := -1
	for z := range r.queue {
		if len(r.queue[z]) > 0 && (best < 0 || len(r.queue[z]) > len(r.queue[best])) {
			best = z
		}
	}
	if best < 0 {
		return false
	}
	r.evict(best, 1)
	return true
}

func (r *pcRef) evict(zone, count int) {
	q := r.queue[zone]
	count = min(count, len(q))
	for _, p := range q[:count] {
		r.mem.Free(p, pcOrder)
	}
	r.queue[zone] = q[count:]
	r.pcPages[zone] -= uint64(count) << pcOrder
	r.reclaimed += uint64(count) << pcOrder
}

func (r *pcRef) kswapd() {
	for _, z := range r.mem.Zones {
		if z.FreePages() >= z.WatermarkLow {
			continue
		}
		r.kswapdRuns++
		need := min(z.WatermarkHigh-z.FreePages(), r.cfg.KswapdBatchPages)
		r.evict(z.ID, max(int(need>>pcOrder), 1))
	}
}

func (r *pcRef) directReclaim(zone, order int) bool {
	z := r.mem.Zones[zone]
	before := z.FreePages()
	pages := max(mem.PagesPerOrder(order)*4, 8192)
	r.evict(zone, int(pages>>pcOrder)+1)
	return z.FreePages() > before
}

// matchRef fails unless the node's memory and page cache are in exactly
// the reference's state.
func matchRef(t *testing.T, step string, n *Node, r *pcRef) {
	t.Helper()
	for zi, z := range n.Mem.Zones {
		rz := r.mem.Zones[zi]
		for o := 0; o <= mem.MaxOrder; o++ {
			if !slices.Equal(z.FreeList(o), rz.FreeList(o)) {
				t.Fatalf("%s: zone %d order %d free list differs:\n node %v\n ref  %v", step, zi, o, z.FreeList(o), rz.FreeList(o))
			}
		}
		got := [6]uint64{z.FreePages(), z.Allocs, z.Frees, z.Splits, z.Merges, z.Failures}
		want := [6]uint64{rz.FreePages(), rz.Allocs, rz.Frees, rz.Splits, rz.Merges, rz.Failures}
		if got != want {
			t.Fatalf("%s: zone %d counters %v, ref %v (free Allocs Frees Splits Merges Failures)", step, zi, got, want)
		}
		q := &n.pageCache[zi]
		checkQueueLen(t, q)
		if !slices.Equal(blocksOf(q), r.queue[zi]) {
			t.Fatalf("%s: zone %d page cache differs:\n node %v\n ref  %v", step, zi, blocksOf(q), r.queue[zi])
		}
		if n.pcPages[zi] != r.pcPages[zi] {
			t.Fatalf("%s: zone %d pcPages %d, ref %d", step, zi, n.pcPages[zi], r.pcPages[zi])
		}
		if err := z.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	if n.PCAllocFails != r.allocFails || n.ReclaimedPages != r.reclaimed || n.KswapdRuns != r.kswapdRuns {
		t.Fatalf("%s: fails/reclaimed/kswapd %d/%d/%d, ref %d/%d/%d", step,
			n.PCAllocFails, n.ReclaimedPages, n.KswapdRuns, r.allocFails, r.reclaimed, r.kswapdRuns)
	}
}

// TestPageCacheMatchesPerBlockReference drives the run-based page cache
// and the per-block reference through the same random schedule of cache
// growth, reclaim and fragmenting anonymous allocations, comparing the
// full allocator and cache state after every step.
func TestPageCacheMatchesPerBlockReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DellR415()
		cfg.MemoryBytes = 64 << 20 // two 32MB zones: watermarks are reached quickly
		if seed%3 == 0 {
			cfg.NumaZones = 1 // the spill zone is the preferred zone itself
		}
		n := NewNode(cfg, sim.NewEngine(), sim.NewRand(seed))
		r := newPCRef(cfg)
		rnd := sim.NewRand(seed * 7919)
		type anon struct {
			p     mem.PFN
			order int
		}
		var live []anon
		sizes := []uint64{0, 4 << 10, 32 << 10, 100 << 10, 1 << 20, 3 << 20, 12 << 20, 40 << 20}
		for step := 0; step < 600; step++ {
			zone := rnd.Intn(cfg.NumaZones + 1)
			var what string
			switch op := rnd.Intn(10); {
			case op < 4:
				bytes := sizes[rnd.Intn(len(sizes))]
				n.PageCacheAdd(zone, bytes)
				r.add(zone, bytes)
				what = "PageCacheAdd"
			case op == 4:
				n.kswapdPass()
				r.kswapd()
				what = "kswapdPass"
			case op == 5:
				z, order := zone%cfg.NumaZones, rnd.Intn(mem.MaxOrder+1)
				if got, want := n.DirectReclaim(z, order), r.directReclaim(z, order); got != want {
					t.Fatalf("seed %d step %d: DirectReclaim = %v, ref %v", seed, step, got, want)
				}
				what = "DirectReclaim"
			case op == 6:
				if got, want := n.dropOneCacheBlock(), r.dropOne(); got != want {
					t.Fatalf("seed %d step %d: dropOneCacheBlock = %v, ref %v", seed, step, got, want)
				}
				what = "dropOneCacheBlock"
			case op < 9:
				// Mostly small orders, many at once, so free memory ends
				// up scattered below the page-cache block order.
				order := rnd.Intn(mem.MaxOrder + 1)
				if rnd.Bool(0.7) {
					order = rnd.Intn(pcOrder)
				}
				for i := 1 + rnd.Intn(64); i > 0; i-- {
					p, _, ok := n.Mem.Alloc(zone, order)
					q, _, ok2 := r.mem.Alloc(zone, order)
					if p != q || ok != ok2 {
						t.Fatalf("seed %d step %d: anon Alloc diverged", seed, step)
					}
					if ok {
						live = append(live, anon{p, order})
					}
				}
				what = "anon Alloc"
			default:
				for i := 1 + rnd.Intn(48); i > 0 && len(live) > 0; i-- {
					j := rnd.Intn(len(live))
					n.Mem.Free(live[j].p, live[j].order)
					r.mem.Free(live[j].p, live[j].order)
					live = slices.Delete(live, j, j+1)
				}
				what = "anon Free"
			}
			matchRef(t, what, n, r)
		}
		if n.PCAllocFails == 0 || n.ReclaimedPages == 0 {
			t.Fatalf("seed %d: schedule never recycled (%d) or reclaimed (%d)", seed, n.PCAllocFails, n.ReclaimedPages)
		}
	}
}

// BenchmarkPageCacheCycle is the sustained page-cache regime of the
// competing-build load: with both zones' cache filled to the low
// watermark, each op reads 1MB of file I/O into zone 0, and whenever that
// closes zone 0's watermark gate a direct-reclaim pass frees a 32MB batch.
func BenchmarkPageCacheCycle(b *testing.B) {
	n := NewNode(DellR415(), sim.NewEngine(), sim.NewRand(1))
	n.PageCacheAdd(0, n.Mem.FreePages()*mem.PageSize)
	z := n.Mem.Zones[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PageCacheAdd(0, 1<<20)
		if !pcGateOpen(z) {
			n.DirectReclaim(0, 0)
		}
	}
}

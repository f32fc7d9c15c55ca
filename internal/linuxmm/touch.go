package linuxmm

import (
	"fmt"

	"hpmmap/internal/fault"
	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
)

// maxSmallBlockOrder caps the batch size used to back 4KB-mapped memory.
// Larger batches keep simulation cost low for commodity churn; order 8 =
// 1MB still leaves the 2MB order fragmented under interleaved frees.
const maxSmallBlockOrder = 8

// touchCtx carries one TouchRange invocation's running state.
type touchCtx struct {
	p     *kernel.Process
	r     *region
	load  fault.Load
	stats kernel.TouchStats
	cum   sim.Cycles // accumulated cost, for trace timestamp interpolation
}

// charge books one fault.
func (tc *touchCtx) charge(m *Manager, k fault.Kind, cost sim.Cycles, va pgtable.VirtAddr, stalled bool) {
	tc.cum += cost
	tc.stats.Faults[k]++
	tc.stats.Cycles[k] += cost
	if stalled {
		tc.stats.Stalls++
	}
	tc.p.RecordFault(m.node.Now()+tc.cum, k, cost, va, stalled)
}

// chargeBulk books n identical-kind faults with an aggregate cost.
func (tc *touchCtx) chargeBulk(k fault.Kind, n uint64, total sim.Cycles) {
	if n == 0 {
		return
	}
	tc.cum += total
	tc.stats.Faults[k] += n
	tc.stats.Cycles[k] += total
	tc.p.RecordFaultBulk(k, n, total)
}

// TouchRange implements kernel.MemoryManager: the process accesses
// [addr, addr+length); unmaterialized pages fault.
//
//detsim:hotpath
func (m *Manager) TouchRange(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (kernel.TouchStats, error) {
	ps := state(p)
	r := ps.findRegion(addr)
	if r == nil {
		return kernel.TouchStats{}, fmt.Errorf("linuxmm: touch of unmapped address %#x (pid %d)", uint64(addr), p.PID)
	}
	end := uint64(addr) + length
	if end > uint64(r.start)+r.length {
		return kernel.TouchStats{}, fmt.Errorf("linuxmm: touch [%#x,+%#x) crosses region end", uint64(addr), length)
	}
	// Reuse the manager's scratch context: TouchRange does not reenter
	// (the fallback paths — reclaim, swap-out, OOM kill — never touch),
	// so per-call heap allocation here is pure churn.
	tc := &m.tc
	*tc = touchCtx{p: p, r: r, load: m.node.LoadFor(p)}

	// Consume pending khugepaged merge stalls first: the mm lock was held
	// while we were away; the first faults back get blocked.
	m.consumeMergeStalls(tc)

	// Compute the new prefix target. Stacks grow down: the cursor counts
	// bytes from the top.
	var target uint64
	if r.down {
		target = uint64(r.start) + r.length - uint64(addr)
	} else {
		target = end - uint64(r.start)
	}
	if target <= r.touched {
		return tc.stats, nil // fully resident already
	}

	from := r.touched
	r.touched = target
	switch {
	case r.hugetlb:
		m.touchHugetlb(tc, from, target)
	default:
		m.touchDemand(tc, from, target)
	}
	return tc.stats, nil
}

// consumeMergeStalls charges one blocked fault per completed merge window.
func (m *Manager) consumeMergeStalls(tc *touchCtx) {
	p := tc.p
	for _, d := range p.PendingMergeCosts {
		// The blocked fault pays the merge wait plus its own service.
		cost := d + m.costs().SmallFault(m.rand, tc.load)
		tc.charge(m, fault.KindMergeBlocked, cost, tc.r.start, true)
	}
	p.PendingMergeCosts = p.PendingMergeCosts[:0]
	for _, d := range p.PendingEvictCosts {
		// Eviction shootdowns block the fault the same way a merge window
		// does, but the deposited share is the evictor's doing: move it
		// from the fault kind to the evict cause so barrier attribution
		// names the kubelet, not khugepaged.
		cost := d + m.costs().SmallFault(m.rand, tc.load)
		tc.charge(m, fault.KindMergeBlocked, cost, tc.r.start, true)
		p.Account.Reattribute(timeline.CauseMergeFault, timeline.CauseEvict, d)
	}
	p.PendingEvictCosts = p.PendingEvictCosts[:0]
}

func (m *Manager) costs() *fault.CostParams { return m.node.Costs() }

// touchDemand materializes [from, to) of a demand-paged region: THP large
// chunks inside the eligible span, 4KB everywhere else.
//
//detsim:hotpath
func (m *Manager) touchDemand(tc *touchCtx, from, to uint64) {
	r := tc.r
	// Copy-on-write prefix inherited from a fork parent: writes allocate
	// a private frame and copy the page.
	if r.cow > from {
		stop := to
		if stop > r.cow {
			stop = r.cow
		}
		m.cowTouch(tc, from, stop)
		if to <= r.cow {
			return
		}
		from = stop
	}
	if r.down {
		// Stack: all small; offsets measured from the top.
		m.touchSmall(tc, to-from, r.start+pgtable.VirtAddr(r.length-to))
		return
	}
	if r.heapStyle {
		// glibc-style brk heap under THP: every extension is smaller than
		// a pmd, so the fault path always serves 4KB pages; khugepaged
		// picks up fully-touched span chunks afterwards.
		m.touchSmall(tc, to-from, r.start+pgtable.VirtAddr(from))
		if r.largeHi > r.largeLo {
			full := uint64(0)
			if to > r.largeLo {
				hi := to
				if hi > r.largeHi {
					hi = r.largeHi
				}
				full = (hi - r.largeLo) / mem.LargePageSize
			}
			for r.heapChunks < full {
				//detsim:allow pooled region state (DESIGN.md §11): fallback keeps its capacity across DetachReap recycling, 0 B/op at steady state
				r.fallback = append(r.fallback, r.largeLo+r.heapChunks*mem.LargePageSize)
				r.heapChunks++
			}
		}
		return
	}
	cur := from
	// Head below the large span.
	if cur < r.largeLo || r.largeHi == 0 {
		stop := to
		if r.largeHi > r.largeLo && stop > r.largeLo {
			stop = r.largeLo
		}
		if stop > cur {
			m.touchSmall(tc, stop-cur, r.start+pgtable.VirtAddr(cur))
			cur = stop
		}
	}
	// Align up to the next 2MB chunk boundary, serving any partial chunk
	// remainder with small pages (THP leaves partial chunks to merging).
	if cur >= r.largeLo && cur < r.largeHi {
		if rem := (cur - r.largeLo) % mem.LargePageSize; rem != 0 {
			head := mem.LargePageSize - rem
			if cur+head > to {
				head = to - cur
			}
			m.touchSmall(tc, head, r.start+pgtable.VirtAddr(cur))
			cur += head
		}
	}
	// Large chunks.
	for cur+mem.LargePageSize <= to && cur >= r.largeLo && cur+mem.LargePageSize <= r.largeHi {
		m.touchLargeChunk(tc, cur)
		cur += mem.LargePageSize
	}
	// A partial large chunk at the end of the touch prefix is served
	// small now; THP would leave it to khugepaged later. Treat the
	// remainder as small, and the tail past largeHi likewise.
	if cur < to {
		m.touchSmall(tc, to-cur, r.start+pgtable.VirtAddr(cur))
	}
}

// touchLargeChunk handles one 2MB-aligned chunk in the THP span.
//
//detsim:hotpath
func (m *Manager) touchLargeChunk(tc *touchCtx, off uint64) {
	r := tc.r
	p := tc.p
	va := r.start + pgtable.VirtAddr(off)
	pfn, zone, compacted, ok := m.allocLarge(p.PreferredZone)
	if ok {
		// Fragmentation from interleaved commodity allocation defeats a
		// fraction of THP faults even when the coarse buddy model still
		// has 2MB blocks: isolated pages pin pageblocks, and the
		// watermark checks for costly orders are stricter. The probability
		// rises with memory pressure and concurrent allocator activity.
		pFrag := m.THPFragSensitivity * tc.load.MemPressure * tc.load.AllocContention
		if pFrag > 0.6 {
			pFrag = 0.6
		}
		pFrag += m.THPFallbackBase
		if m.rand.Bool(pFrag) {
			m.node.Mem.Free(pfn, mem.LargePageOrder)
			ok = false
			if m.THPFragSensitivity > 0 && m.rand.Bool(0.5) {
				// Half the failures run direct compaction and recover.
				pfn, zone, _, ok = m.allocLarge(p.PreferredZone)
				compacted = true
			}
		}
	}
	if !ok {
		// Fall back to 512 small pages; khugepaged may merge them later.
		m.FallbackFaults++
		//detsim:allow pooled region state (DESIGN.md §11): fallback keeps its capacity across DetachReap recycling, 0 B/op at steady state
		r.fallback = append(r.fallback, off)
		m.touchSmall(tc, mem.LargePageSize, va)
		return
	}
	if compacted {
		m.Compactions++
	}
	m.LargeFaults++
	//detsim:allow pooled region state (DESIGN.md §11): largeFrames keeps its capacity across DetachReap recycling, 0 B/op at steady state
	r.largeFrames = append(r.largeFrames, largeFrame{pfn: pfn, zone: zone})
	r.largeBytes += mem.LargePageSize
	p.ResidentLarge += mem.LargePageSize
	if zone != p.PreferredZone {
		r.remoteBytes += mem.LargePageSize
		p.ResidentRemote += mem.LargePageSize
	}
	cost := m.costs().LargeFault(m.rand, tc.load, compacted)
	tc.charge(m, fault.KindLarge, cost, va, compacted)
	if m.node.Detail && !p.Commodity {
		if err := p.PT.Map(va, pfn, pgtable.Page2M, r.prot); err != nil {
			// Simulated-state violation: the statistical fault path and
			// the real page table disagree about what is mapped at va.
			invariant.Fail(invariant.Violation{
				Check: "pt_map_conflict", Subsystem: "linuxmm", PID: p.PID,
				Detail: fmt.Sprintf("large-fault map at %#x failed: %v", uint64(va), err),
			})
		}
	}
}

// allocLarge tries a watermark-gated order-9 allocation, compacting
// (evicting page cache, which really coalesces the buddy) when the first
// attempt fails.
//
//detsim:hotpath
func (m *Manager) allocLarge(preferred int) (mem.PFN, int, bool, bool) {
	if pfn, z, ok := m.gatedAlloc(preferred, mem.LargePageOrder); ok {
		return pfn, z, false, true
	}
	// Direct compaction: evict cache near the preferred zone and retry.
	m.node.DirectReclaim(preferred, mem.LargePageOrder)
	if pfn, z, ok := m.gatedAlloc(preferred, mem.LargePageOrder); ok {
		return pfn, z, true, true
	}
	return 0, 0, true, false
}

// gatedAlloc allocates 2^order pages respecting the min watermark, as the
// kernel's normal (non-ALLOC_HARDER) paths do.
//
//detsim:hotpath
func (m *Manager) gatedAlloc(preferred, order int) (mem.PFN, int, bool) {
	zones := m.node.Mem.Zones
	for i := 0; i < len(zones); i++ {
		zi := (preferred + i) % len(zones)
		z := zones[zi]
		if z.FreePages() < z.WatermarkMin+mem.PagesPerOrder(order) {
			continue
		}
		if pfn, ok := z.AllocPages(order); ok {
			return pfn, zi, true
		}
	}
	return 0, 0, false
}

// allocSeg is one gatedAllocRun segment: n consecutive blocks that came
// from the same zone.
type allocSeg struct {
	zone int
	n    uint64
}

// gatedAllocRun allocates up to want blocks of 2^order pages through the
// watermark gate, draining each zone in rotation order from preferred.
// This produces exactly the block sequence `want` sequential gatedAlloc
// calls would: free pages only decrease during a run (no frees can
// interleave inside one touchSmall backing loop), so once a zone fails
// the gate or the buddy search it cannot recover until the caller's slow
// path reclaims memory. Blocks land in m.runPFNs and per-zone segments
// in m.runSegs; the return is the count allocated. A short return means
// every zone was probed and refused — the equivalent of one failed
// gatedAlloc, so callers go straight to the reclaim slow path without
// re-probing.
//
//detsim:hotpath
func (m *Manager) gatedAllocRun(preferred, order int, want uint64) uint64 {
	m.runPFNs = m.runPFNs[:0]
	m.runSegs = m.runSegs[:0]
	zones := m.node.Mem.Zones
	var got uint64
	for i := 0; i < len(zones) && got < want; i++ {
		zi := (preferred + i) % len(zones)
		z := zones[zi]
		reserve := z.WatermarkMin + mem.PagesPerOrder(order)
		var n uint64
		for got < want && z.FreePages() >= reserve {
			pfn, ok := z.AllocPages(order)
			if !ok {
				break
			}
			m.runPFNs = append(m.runPFNs, pfn)
			n++
			got++
		}
		if n > 0 {
			m.runSegs = append(m.runSegs, allocSeg{zone: zi, n: n})
		}
	}
	m.GatedAllocRuns++
	m.GatedAllocBlocks += got
	return got
}

// touchSmall materializes bytes of 4KB-mapped memory starting at va.
//
//detsim:hotpath
func (m *Manager) touchSmall(tc *touchCtx, bytes uint64, va pgtable.VirtAddr) {
	r := tc.r
	p := tc.p
	pages := (bytes + mem.PageSize - 1) / mem.PageSize
	m.SmallFaults += pages

	// Back the pages with buddy blocks, charging reclaim storms on real
	// allocation failures. At the order cap the next run of blocks all
	// pick the same order, so they are allocated in one gated pass
	// instead of one gatedAlloc round-trip per block; the block sequence
	// is identical (see gatedAllocRun).
	need := pages
	storms := uint64(0)
	for need > 0 {
		order := smallBatchOrder
		for order < maxSmallBlockOrder && mem.PagesPerOrder(order+1) <= need {
			order++
		}
		want := uint64(1)
		if order == maxSmallBlockOrder && mem.PagesPerOrder(order+1) <= need {
			// Blocks of this order keep being picked until need drops
			// below 2^(order+1) pages.
			want = (need-mem.PagesPerOrder(order+1))/mem.PagesPerOrder(order) + 1
		}
		got := m.gatedAllocRun(p.PreferredZone, order, want)
		if got > 0 {
			for _, seg := range m.runSegs {
				if seg.zone != p.PreferredZone {
					r.remoteBytes += seg.n * mem.BytesPerOrder(order)
					p.ResidentRemote += seg.n * mem.BytesPerOrder(order)
				}
			}
			for _, pfn := range m.runPFNs {
				//detsim:allow pooled region state (DESIGN.md §11): smallBlocks keeps its capacity across DetachReap recycling, 0 B/op at steady state
				r.smallBlocks = append(r.smallBlocks, smallBlock{pfn: pfn, order: order})
			}
			r.smallBytes += got * mem.BytesPerOrder(order)
			p.ResidentSmall += got * mem.BytesPerOrder(order)
			// Only the final block can over-shoot (want > 1 runs keep
			// need >= the block size throughout).
			taken := got * mem.PagesPerOrder(order)
			if taken > need {
				taken = need
			}
			need -= taken
		}
		if got == want {
			continue
		}
		// Shortfall: the run's final probe round visited every zone and
		// refused — a failed gatedAlloc. Direct reclaim: evict page
		// cache, charge a storm, retry.
		m.ReclaimStorms++
		if !p.Commodity {
			m.StormsHPC++
		}
		m.node.DirectReclaim(p.PreferredZone, order)
		storm := m.costs().DirectReclaim(m.rand, tc.load)
		kind := fault.KindSmall
		if state(p).mode == ModeHugeTLB {
			kind = fault.KindHugeTLBSmall
		}
		tc.charge(m, kind, storm+m.costs().SmallFault(m.rand, tc.load), va, true)
		// The fault-kind charge above includes the reclaim stall; move
		// that share to the reclaim-storm cause so attribution separates
		// "slow fault path" from "stalled behind reclaim".
		p.Account.Reattribute(timeline.FaultCause(kind), timeline.CauseReclaimStorm, storm)
		storms++
		if need > 0 {
			need-- // the storm fault itself materialized one page
		}
		pfn, zone, ok := m.gatedAlloc(p.PreferredZone, order)
		if !ok {
			// Desperate: ignore watermarks (ALLOC_HARDER).
			var zp *mem.Zone
			pfn, zp, ok = m.node.Mem.Alloc(p.PreferredZone, order)
			if !ok {
				// Cache reclaim made no progress: page out commodity
				// anon memory before resorting to the OOM killer.
				if m.swapOutCommodity(p, 8192) > 0 { // one 32MB pass
					pfn, zp, ok = m.node.Mem.Alloc(p.PreferredZone, order)
				}
				if !ok {
					if victim := m.node.OOMKill(); victim != nil && victim != p {
						pfn, zp, ok = m.node.Mem.Alloc(p.PreferredZone, order)
					}
				}
				if !ok {
					// Even the killer could not help (no commodity
					// victim); stop materializing.
					return
				}
			}
			zone = zp.ID
		}
		if zone != p.PreferredZone {
			r.remoteBytes += mem.BytesPerOrder(order)
			p.ResidentRemote += mem.BytesPerOrder(order)
		}
		//detsim:allow pooled region state (DESIGN.md §11): smallBlocks keeps its capacity across DetachReap recycling, 0 B/op at steady state
		r.smallBlocks = append(r.smallBlocks, smallBlock{pfn: pfn, order: order})
		taken := mem.PagesPerOrder(order)
		if taken > need {
			taken = need
		}
		r.smallBytes += mem.BytesPerOrder(order)
		p.ResidentSmall += mem.BytesPerOrder(order)
		need -= taken
	}

	// Storm faults were charged individually above; the rest charge here.
	if storms >= pages {
		return
	}
	pages -= storms
	kind := fault.KindSmall
	if state(p).mode == ModeHugeTLB {
		kind = fault.KindHugeTLBSmall
	}
	if m.node.Detail && !p.Commodity {
		// Micro fidelity: draw each fault, map each PTE.
		for i := uint64(0); i < pages; i++ {
			pva := va + pgtable.VirtAddr(i*mem.PageSize)
			var cost, stall sim.Cycles
			stalled := false
			if kind == fault.KindHugeTLBSmall {
				var svc sim.Cycles
				svc, stall, stalled = m.costs().HugeTLBSmallFaultParts(m.rand, tc.load)
				cost = svc + stall
			} else {
				cost = m.costs().SmallFault(m.rand, tc.load)
			}
			tc.charge(m, kind, cost, pva, stalled)
			p.Account.Reattribute(timeline.FaultCause(kind), timeline.CauseReclaimStorm, stall)
			m.mapSmallDetail(p, pva, r)
		}
		return
	}
	// Aggregate fidelity: one normal draw for the batch; storms were
	// already charged individually above. HugeTLBfs-configured systems
	// additionally run their small-page fault path at the allocator's
	// watermarks, entering direct reclaim probabilistically (the paper's
	// Figure 3: mean ~475K cycles with an enormous standard deviation).
	if kind == fault.KindHugeTLBSmall {
		p := m.costs().ReclaimProb(tc.load.MemPressure)
		if nStorm := m.sampleBinomial(pages, p); nStorm > 0 {
			if nStorm > pages {
				nStorm = pages
			}
			for i := uint64(0); i < nStorm; i++ {
				m.node.DirectReclaim(tc.p.PreferredZone, smallBatchOrder)
				storm := m.costs().DirectReclaim(m.rand, tc.load)
				tc.charge(m, kind, storm+m.costs().SmallFault(m.rand, tc.load), va, true)
				tc.p.Account.Reattribute(timeline.FaultCause(kind), timeline.CauseReclaimStorm, storm)
				m.ReclaimStorms++
				if !tc.p.Commodity {
					m.StormsHPC++
				}
			}
			pages -= nStorm
			if pages == 0 {
				return
			}
		}
	}
	total := m.costs().AggregateSmallFaults(m.rand, tc.load, pages)
	tc.chargeBulk(kind, pages, total)
}

// sampleBinomial draws Binomial(n, p) via a normal approximation with a
// Poisson-style floor for small means.
func (m *Manager) sampleBinomial(n uint64, p float64) uint64 {
	if p <= 0 || n == 0 {
		return 0
	}
	mean := float64(n) * p
	if mean < 8 {
		// Direct Bernoulli sampling for small counts.
		var k uint64
		for i := uint64(0); i < n; i++ {
			if m.rand.Bool(p) {
				k++
			}
		}
		return k
	}
	v := m.rand.Normal(mean, sqrt(mean*(1-p)))
	if v < 0 {
		return 0
	}
	return uint64(v)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for a sampler.
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// mapSmallDetail installs one 4KB PTE with a synthetic frame drawn from
// the region's small blocks (frame identity within a block is not
// significant; the table structure and counts are). An address that is
// not 4KB-aligned installs nothing: Map would refuse it before any side
// effect, so returning first only skips building the refusal's error.
// Such addresses come from touches that start at a byte-granular touch
// cursor (brk heap extensions, the partial-chunk head in a THP span).
func (m *Manager) mapSmallDetail(p *kernel.Process, va pgtable.VirtAddr, r *region) {
	if len(r.smallBlocks) == 0 || uint64(va)%mem.PageSize != 0 {
		return
	}
	blk := r.smallBlocks[len(r.smallBlocks)-1]
	off := (uint64(va) / mem.PageSize) % mem.PagesPerOrder(blk.order)
	pfn := blk.pfn + mem.PFN(off)
	if err := p.PT.Map(va, pfn, pgtable.Page4K, r.prot); err != nil {
		// Already mapped (re-touch after partial unmap); ignore.
		_ = err
	}
}

// touchHugetlb materializes [from, to) of a hugetlb-backed region in
// libhugetlbfs slabs: one recorded fault per slab extension, 2MB pool
// pages behind it.
func (m *Manager) touchHugetlb(tc *touchCtx, from, to uint64) {
	r := tc.r
	p := tc.p
	slab := m.Pools.SlabBytes
	needSlabs := (to + slab - 1) / slab
	for r.slabs < needSlabs {
		va := r.start + pgtable.VirtAddr(r.slabs*slab)
		pagesWanted := m.Pools.SlabPages()
		if rem := r.length - r.slabs*slab; rem < slab {
			pagesWanted = (rem + mem.LargePageSize - 1) / mem.LargePageSize
		}
		allocated := uint64(0)
		for i := uint64(0); i < pagesWanted; i++ {
			pfn, zone, err := m.Pools.Alloc2M(p.PreferredZone)
			if err != nil {
				break
			}
			r.largeFrames = append(r.largeFrames, largeFrame{pfn: pfn, zone: zone, pool: true})
			if zone != p.PreferredZone {
				r.remoteBytes += mem.LargePageSize
				p.ResidentRemote += mem.LargePageSize
			}
			allocated++
			if m.node.Detail && !p.Commodity {
				pva := va + pgtable.VirtAddr(i*mem.LargePageSize)
				if err := p.PT.Map(pva, pfn, pgtable.Page2M, r.prot); err != nil {
					// Simulated-state violation: hugetlb slab backing
					// collided with an existing page-table mapping.
					invariant.Fail(invariant.Violation{
						Check: "pt_map_conflict", Subsystem: "linuxmm", PID: p.PID,
						Manager: "hugetlbfs",
						Detail:  fmt.Sprintf("hugetlb slab map at %#x failed: %v", uint64(pva), err),
					})
				}
			}
		}
		if allocated == 0 {
			// Pool exhausted: fall back to small pages for the rest.
			m.touchSmall(tc, to-r.slabs*slab, va)
			r.slabs = needSlabs
			return
		}
		bytes := allocated * mem.LargePageSize
		r.largeBytes += bytes
		p.ResidentLarge += bytes
		m.LargeFaults++
		// One fault is recorded per slab extension, but every page in the
		// slab is cleared on allocation.
		cost := m.costs().HugeTLBLargeFault(m.rand, tc.load)
		if allocated > 1 {
			cost += sim.Cycles(float64(allocated-1) * m.costs().Clear2MCycles(tc.load))
		}
		tc.charge(m, fault.KindHugeTLBLarge, cost, va, false)
		r.slabs++
	}
}

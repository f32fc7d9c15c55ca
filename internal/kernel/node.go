package kernel

import (
	"fmt"

	"hpmmap/internal/fault"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/vma"
)

// Node is one simulated machine: cores, memory, the scheduler, the page
// cache, and the system-call layer that routes memory operations to the
// registered memory managers.
type Node struct {
	cfg  MachineConfig
	eng  *sim.Engine
	rand *sim.Rand

	Mem   *mem.NodeMemory
	cores []core

	defaultMM MemoryManager
	interpose Interposer

	procs   map[int]*Process
	nextPID int
	nextTID int

	// pool holds recycled Process/Task structs for the lifecycle fast
	// path (lifecycle.go); poolLifecycle gates it (default on).
	pool          lifecyclePools
	poolLifecycle bool

	// runningCommodity counts commodity-process tasks currently on a
	// runqueue, maintained by arrive/depart so LoadFor reads a summary
	// counter instead of scanning the append-only task list (which grows
	// with every fork over a macro run).
	runningCommodity int

	// Page cache, one FIFO block queue per zone, held as runs of
	// consecutive blocks. Blocks are order-3 (32KB) so commodity file
	// I/O fragments large-page-sized regions realistically.
	pageCache []pcQueue
	pcPages   []uint64

	kswapd *sim.Ticker
	swap   *SwapDevice

	// Detail selects micro-level fidelity: per-fault records and real
	// page-table updates (Figures 2–5). When false, managers aggregate
	// fault costs statistically from the same cost model — required to
	// make the ~10^6-fault macro experiments (Figures 7–8) tractable.
	Detail bool

	// reservedPages counts frames reserved away from general use
	// (hugetlb pools): they are "used" in the zones but belong to no one
	// Linux can reclaim from.
	reservedPages uint64

	// Statistics.
	KswapdRuns     uint64
	PCAllocFails   uint64
	ReclaimedPages uint64
	OOMKills       uint64
	// Lifecycle fast-path counters: ExitReap calls that went through the
	// pooled teardown, and Process/Task structs served from the pools.
	LifecycleReaps      uint64
	LifecycleProcReuses uint64
	LifecycleTaskReuses uint64

	// obs holds the node's metric handles and tracer; nil (the
	// zero-overhead default) until Observe is called.
	obs *nodeObs
}

// Interposer is a memory manager that claims only registered processes —
// HPMMAP's PID hash table check in front of the original system call.
type Interposer interface {
	MemoryManager
	Registered(pid int) bool
}

// pcRun is n physically consecutive page-cache blocks starting at pfn.
type pcRun struct {
	pfn mem.PFN
	n   uint64
}

// pcQueue is one zone's page cache: a FIFO of blocks held as runs of
// physically consecutive blocks, so fills and evictions cost one entry
// per run rather than one per 32KB block. A push contiguous with the
// newest run extends it. The head index keeps eviction from reslicing
// the front, and growth compacts into the dead front instead of
// reallocating.
type pcQueue struct {
	runs   []pcRun
	head   int
	blocks int // total blocks across runs
}

func (q *pcQueue) len() int { return q.blocks }

// push appends n blocks starting at pfn as the newest entries.
func (q *pcQueue) push(pfn mem.PFN, n uint64) {
	q.blocks += int(n)
	if last := len(q.runs) - 1; last >= q.head && q.runs[last].pfn+mem.PFN(q.runs[last].n<<pcOrder) == pfn {
		q.runs[last].n += n
		return
	}
	if len(q.runs) == cap(q.runs) && q.head > 0 {
		// About to grow: compact into the dead front instead.
		k := copy(q.runs, q.runs[q.head:])
		q.runs = q.runs[:k]
		q.head = 0
	}
	q.runs = append(q.runs, pcRun{pfn: pfn, n: n})
}

// popFront removes up to max of the oldest blocks, all from the oldest
// run (splitting it when max is smaller), and returns them as one run.
// ok is false when the queue is empty or max is not positive.
func (q *pcQueue) popFront(max int) (pcRun, bool) {
	if q.blocks == 0 || max <= 0 {
		return pcRun{}, false
	}
	r := &q.runs[q.head]
	out := *r
	if out.n > uint64(max) {
		out.n = uint64(max)
		r.pfn += mem.PFN(out.n << pcOrder)
		r.n -= out.n
	} else {
		q.head++
		if q.head == len(q.runs) {
			q.runs = q.runs[:0]
			q.head = 0
		}
	}
	q.blocks -= int(out.n)
	return out, true
}

const (
	pcOrder      = 3            // 32KB page-cache allocation units
	pcBlockPages = 1 << pcOrder // base pages per page-cache block
)

// NewNode boots a node on the given engine. The default memory manager
// must be installed with SetDefaultMM before processes run.
func NewNode(cfg MachineConfig, eng *sim.Engine, rnd *sim.Rand) *Node {
	n := &Node{
		cfg:       cfg,
		eng:       eng,
		rand:      rnd,
		Mem:       mem.NewNodeMemory(cfg.NumaZones, cfg.MemoryBytes),
		procs:     make(map[int]*Process),
		nextPID:   100,
		pageCache: make([]pcQueue, cfg.NumaZones),
		pcPages:   make([]uint64, cfg.NumaZones),

		poolLifecycle: true,
	}
	n.cores = make([]core, cfg.Cores)
	perZone := cfg.Cores / cfg.NumaZones
	if perZone == 0 {
		perZone = 1
	}
	for i := range n.cores {
		n.cores[i] = core{id: i, zone: i / perZone % cfg.NumaZones}
	}
	n.kswapd = eng.NewTicker(sim.Cycles(cfg.KswapdPeriod), n.kswapdPass)
	return n
}

// Config returns the machine configuration.
func (n *Node) Config() MachineConfig { return n.cfg }

// Costs returns the machine's fault cost parameters in place. Config
// copies the whole configuration, which the per-fault cost draws cannot
// afford; callers must not modify the parameters.
func (n *Node) Costs() *fault.CostParams { return &n.cfg.Costs }

// Engine returns the simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// Rand returns the node's PRNG stream.
func (n *Node) Rand() *sim.Rand { return n.rand }

// Now returns the current simulated time.
func (n *Node) Now() sim.Cycles { return n.eng.Now() }

// NumCores returns the core count.
func (n *Node) NumCores() int { return len(n.cores) }

// ZoneOfCore returns the NUMA zone of a core.
func (n *Node) ZoneOfCore(c int) int { return n.cores[c].zone }

// SetDefaultMM installs the manager used by unregistered processes.
func (n *Node) SetDefaultMM(mm MemoryManager) { n.defaultMM = mm }

// DefaultMM returns the default manager.
func (n *Node) DefaultMM() MemoryManager { return n.defaultMM }

// SetInterposer installs the system-call interposition layer (HPMMAP).
// Passing nil removes it — the module can be unloaded at runtime, adding
// no overhead when not in use.
func (n *Node) SetInterposer(i Interposer) { n.interpose = i }

// mmFor resolves the manager for a process: the interposer when the PID
// is registered, the default manager otherwise (the hash-table check of
// the paper's Figure 6).
func (n *Node) mmFor(p *Process) MemoryManager {
	if n.interpose != nil && n.interpose.Registered(p.PID) {
		return n.interpose
	}
	return n.defaultMM
}

// ManagerNameFor reports which manager currently serves the process.
func (n *Node) ManagerNameFor(p *Process) string { return n.mmFor(p).Name() }

// NextPID returns the PID the next created process will receive — the
// hook the HPMMAP launch tool uses to register a process before exec.
func (n *Node) NextPID() int { return n.nextPID }

// NewProcess creates a process attached to the manager the syscall layer
// currently routes it to.
func (n *Node) NewProcess(name string, commodity bool, preferredZone int) (*Process, error) {
	if n.defaultMM == nil {
		return nil, fmt.Errorf("kernel: no default memory manager installed")
	}
	p := n.procStruct()
	if p != nil {
		// Recycled struct: reset the retained Space and page table to
		// newborn state, then fill in identity. The remaining fields were
		// zeroed at reap time.
		p.Space.Reset(vma.DefaultLayout())
		p.PID = n.nextPID
		p.Name = name
		p.node = n
		p.PreferredZone = preferredZone % n.cfg.NumaZones
		p.Commodity = commodity
	} else {
		p = &Process{
			PID:           n.nextPID,
			Name:          name,
			node:          n,
			Space:         vma.NewSpace(vma.DefaultLayout()),
			PT:            pgtable.New(),
			PreferredZone: preferredZone % n.cfg.NumaZones,
			Commodity:     commodity,
		}
	}
	if n.obs != nil {
		p.PT.Instrument(n.obs.ptWalks, n.obs.ptDepth)
	}
	n.nextPID++
	n.procs[p.PID] = p
	if err := n.mmFor(p).Attach(p); err != nil {
		delete(n.procs, p.PID)
		return nil, err
	}
	return p, nil
}

// Exit tears the process down, returning all its memory.
func (n *Node) Exit(p *Process) {
	if p.Exited {
		return
	}
	p.Exited = true
	n.mmFor(p).Detach(p)
	delete(n.procs, p.PID)
}

// Process returns a live process by PID, or nil.
func (n *Node) Process(pid int) *Process { return n.procs[pid] }

// Processes calls fn for each live process in PID order.
func (n *Node) Processes(fn func(*Process)) {
	// PIDs are allocated sequentially; iterate deterministically.
	for pid := 100; pid < n.nextPID; pid++ {
		if p, ok := n.procs[pid]; ok {
			fn(p)
		}
	}
}

// Forker is implemented by memory managers that support fork (Linux).
// HPMMAP's eager design deliberately does not: duplicating an on-request
// address space would copy the whole resident set.
type Forker interface {
	Fork(parent, child *Process) (sim.Cycles, error)
}

// ErrForkUnsupported reports a manager without fork support.
var ErrForkUnsupported = fmt.Errorf("kernel: memory manager does not support fork")

// Fork duplicates a process copy-on-write through its memory manager.
func (n *Node) Fork(parent *Process, name string) (*Process, sim.Cycles, error) {
	mm := n.mmFor(parent)
	f, ok := mm.(Forker)
	if !ok {
		return nil, 0, ErrForkUnsupported
	}
	child := n.procStruct()
	if child != nil {
		parent.Space.CloneInto(child.Space)
		child.PID = n.nextPID
		child.Name = name
		child.node = n
		child.PreferredZone = parent.PreferredZone
		child.Commodity = parent.Commodity
	} else {
		child = &Process{
			PID:           n.nextPID,
			Name:          name,
			node:          n,
			Space:         parent.Space.Clone(),
			PT:            pgtable.New(),
			PreferredZone: parent.PreferredZone,
			Commodity:     parent.Commodity,
		}
	}
	if n.obs != nil {
		child.PT.Instrument(n.obs.ptWalks, n.obs.ptDepth)
	}
	n.nextPID++
	n.procs[child.PID] = child
	cost, err := f.Fork(parent, child)
	if err != nil {
		delete(n.procs, child.PID)
		return nil, 0, err
	}
	return child, cost + sim.Cycles(n.cfg.SyscallCost), nil
}

// NewTask creates a task for the process. pinned is a core ID or -1.
func (n *Node) NewTask(p *Process, pinned int, bwWeight float64) *Task {
	t := n.taskStruct()
	if t == nil {
		t = &Task{}
	}
	*t = Task{ID: n.nextTID, Proc: p, Pinned: pinned, BandwidthWeight: bwWeight}
	if pinned >= 0 {
		t.cur = pinned
	}
	n.nextTID++
	p.tasks = append(p.tasks, t)
	return t
}

// --- System-call surface -------------------------------------------------

// chargeSyscall attributes one successful MM system call's full cost
// (manager work — for HPMMAP that includes the eager on-request backing
// — plus the trap) to the process's attribution account. Nil-safe.
func chargeSyscall(p *Process, c sim.Cycles, err error) {
	if err == nil {
		p.Account.Charge(timeline.CauseSyscall, c)
	}
}

// Mmap allocates an anonymous mapping for p.
func (n *Node) Mmap(p *Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error) {
	addr, c, err := n.mmFor(p).Mmap(p, length, prot, kind)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return addr, c, err
}

// Munmap removes a mapping.
func (n *Node) Munmap(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	c, err := n.mmFor(p).Munmap(p, addr, length)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return c, err
}

// Brk adjusts the heap.
func (n *Node) Brk(p *Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error) {
	b, c, err := n.mmFor(p).Brk(p, newBrk)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return b, c, err
}

// Mprotect changes protections.
func (n *Node) Mprotect(p *Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error) {
	c, err := n.mmFor(p).Mprotect(p, addr, length, prot)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return c, err
}

// TouchRange drives first-touch accesses over a range through the fault
// path of the owning manager.
func (n *Node) TouchRange(p *Process, addr pgtable.VirtAddr, length uint64) (TouchStats, error) {
	return n.mmFor(p).TouchRange(p, addr, length)
}

// PageSizeAt reports the mapping granularity at addr.
func (n *Node) PageSizeAt(p *Process, addr pgtable.VirtAddr) pgtable.PageSize {
	return n.mmFor(p).PageSizeAt(p, addr)
}

// TouchStack drives first-touch over `bytes` of the process stack.
func (n *Node) TouchStack(p *Process, bytes uint64) (TouchStats, error) {
	addr, length := n.mmFor(p).StackRange(p, bytes)
	return n.mmFor(p).TouchRange(p, addr, length)
}

// --- Load snapshot --------------------------------------------------------

// SetReservedBytes records memory reserved at boot (hugetlb pools) so
// pressure accounting can distinguish it from reclaimable usage.
func (n *Node) SetReservedBytes(b uint64) { n.reservedPages = b / mem.PageSize }

// CommitPressure returns the fraction of Linux-usable memory committed to
// unreclaimable (anonymous) allocations: the smooth pressure signal that
// drives reclaim probability and THP fragmentation. Page cache does not
// count — it is reclaimable — and neither do boot-time reservations,
// which subtract from the usable pool instead.
func (n *Node) CommitPressure() float64 {
	total := n.Mem.TotalPages()
	free := n.Mem.FreePages()
	var cache uint64
	for z := range n.pcPages {
		cache += n.pcPages[z]
	}
	used := total - free
	nonEvict := int64(used) - int64(cache) - int64(n.reservedPages)
	usable := int64(total) - int64(n.reservedPages)
	if usable <= 0 {
		return 1
	}
	if nonEvict < 0 {
		nonEvict = 0
	}
	v := float64(nonEvict) / float64(usable)
	if v > 1 {
		v = 1
	}
	return v
}

// LoadFor captures the system conditions a fault by p executes under.
func (n *Node) LoadFor(p *Process) fault.Load {
	z := n.Mem.Zones[p.PreferredZone]
	frag := z.FragmentationIndex(mem.LargePageOrder)
	// Allocation contention: commodity tasks running right now, relative
	// to core count. runningCommodity is maintained by arrive/depart;
	// a commodity process excludes its own running tasks.
	commodity := n.runningCommodity
	if p.Commodity {
		commodity -= p.running
	}
	alloc := float64(commodity) / float64(len(n.cores))
	if alloc > 1 {
		alloc = 1
	}
	pressure := n.CommitPressure()
	if zp := n.Mem.Pressure(); zp > pressure {
		pressure = zp
	}
	return fault.Load{
		MemPressure:     pressure,
		BandwidthLoad:   n.bandwidthLoadExcluding(p),
		AllocContention: alloc,
		FragIndex:       frag,
	}
}

// --- Page cache and reclaim ----------------------------------------------

// PageCacheAdd grows the page cache by bytes in the given zone (commodity
// file I/O). When allocation fails the oldest cache blocks are recycled —
// the cache never pushes the system to OOM, it just keeps memory at the
// watermarks, exactly the sustained-pressure regime of the paper.
//
// The result is exactly that of adding the blocks one at a time through
// pcAddOne. Growth respects the low watermark: readahead and buffered
// writes back off rather than steal the emergency reserve. A zone whose
// gate is open admits exactly (free-low-8)/8+1 more blocks before it
// closes, so that prefix is filled in runs with Zone.AllocRun: from the
// preferred zone while its gate is open, else spilling to the next zone
// (the preferred zone's gate cannot reopen meanwhile). Only the residual
// blocks — a zone out of blocks under an open gate, and the recycle path
// — go one at a time.
//
//detsim:hotpath
func (n *Node) PageCacheAdd(zone int, bytes uint64) {
	blocks := bytes / (mem.PageSize << pcOrder)
	if blocks == 0 {
		blocks = 1
	}
	zones := n.Mem.Zones
	for blocks > 0 {
		z := zones[zone%len(zones)]
		if !pcGateOpen(z) {
			z = zones[(zone+1)%len(zones)]
		}
		if pcGateOpen(z) {
			want := min(blocks, (z.FreePages()-z.WatermarkLow-pcBlockPages)/pcBlockPages+1)
			for want > 0 {
				pfn, got, ok := z.AllocRun(pcOrder, want)
				if !ok {
					break
				}
				n.pcInsert(z.ID, pfn, got)
				want -= got
				blocks -= got
			}
			if want == 0 {
				continue
			}
		}
		if !n.pcAddOne(zone) {
			return
		}
		blocks--
	}
}

// pcGateOpen reports whether page-cache growth may take a block from z
// without dipping below its low watermark.
func pcGateOpen(z *mem.Zone) bool { return z.FreePages() >= z.WatermarkLow+pcBlockPages }

// pcGatedAlloc takes one block from zone zid (modulo the zone count) if
// its gate is open.
func (n *Node) pcGatedAlloc(zid int) (mem.PFN, *mem.Zone, bool) {
	z := n.Mem.Zones[zid%len(n.Mem.Zones)]
	if !pcGateOpen(z) {
		return 0, nil, false
	}
	pfn, ok := z.AllocPages(pcOrder)
	return pfn, z, ok
}

// pcAddOne adds one block to the cache: from the preferred zone, else
// the next one, each under its gate; failing both, it recycles the
// oldest cached block and allocates ungated. It reports false when the
// cache cannot grow at all.
//
//detsim:hotpath
func (n *Node) pcAddOne(zone int) bool {
	pfn, z, ok := n.pcGatedAlloc(zone)
	if !ok {
		pfn, z, ok = n.pcGatedAlloc(zone + 1)
	}
	if !ok {
		n.PCAllocFails++
		if !n.dropOneCacheBlock() {
			return false
		}
		pfn, z, ok = n.Mem.Alloc(zone, pcOrder)
		if !ok {
			return false
		}
	}
	n.pcInsert(z.ID, pfn, 1)
	return true
}

// pcInsert records count blocks starting at pfn as the newest cache in
// the zone.
func (n *Node) pcInsert(zone int, pfn mem.PFN, count uint64) {
	n.pageCache[zone].push(pfn, count)
	n.pcPages[zone] += count << pcOrder
}

// PageCachePages returns cached pages in the zone.
func (n *Node) PageCachePages(zone int) uint64 { return n.pcPages[zone] }

// dropOneCacheBlock evicts one block from the fullest zone's cache.
//
//detsim:hotpath
func (n *Node) dropOneCacheBlock() bool {
	best := -1
	for z := range n.pageCache {
		if n.pageCache[z].len() > 0 && (best < 0 || n.pageCache[z].len() > n.pageCache[best].len()) {
			best = z
		}
	}
	if best < 0 {
		return false
	}
	n.evictFrom(best, 1)
	return true
}

// evictFrom frees count blocks from the zone's cache (FIFO), one run
// (or the front part of one) at a time.
//
//detsim:hotpath
func (n *Node) evictFrom(zone int, count int) {
	q := &n.pageCache[zone]
	if count > q.len() {
		count = q.len()
	}
	for left := count; left > 0; {
		r, _ := q.popFront(left)
		n.Mem.FreeRun(r.pfn, r.n, pcOrder)
		left -= int(r.n)
	}
	n.pcPages[zone] -= uint64(count) << pcOrder
	n.ReclaimedPages += uint64(count) << pcOrder
}

// kswapdPass frees page cache in any zone below its low watermark, down
// toward the high watermark — Linux's background reclaim.
func (n *Node) kswapdPass() {
	for _, z := range n.Mem.Zones {
		if z.FreePages() >= z.WatermarkLow {
			continue
		}
		n.KswapdRuns++
		n.obs.traceReclaim("kswapd", z.ID, n.eng.Now())
		need := z.WatermarkHigh - z.FreePages()
		if need > n.cfg.KswapdBatchPages {
			need = n.cfg.KswapdBatchPages
		}
		blocks := int(need >> pcOrder)
		if blocks == 0 {
			blocks = 1
		}
		n.evictFrom(z.ID, blocks)
	}
}

// DirectReclaim drops enough page cache to satisfy an allocation of the
// given order in the zone, returning whether anything was freed. The
// caller charges the heavy-tailed stall from the cost model. One pass
// frees a substantial batch (vmscan reclaims well past the request at
// elevated priority), so a single stall covers many subsequent
// allocations.
func (n *Node) DirectReclaim(zone int, order int) bool {
	n.obs.traceReclaim("direct_reclaim", zone, n.eng.Now())
	z := n.Mem.Zones[zone]
	before := z.FreePages()
	pages := mem.PagesPerOrder(order) * 4
	if min := uint64(8192); pages < min { // >= 32MB per pass
		pages = min
	}
	blocks := int(pages>>pcOrder) + 1
	n.evictFrom(zone, blocks)
	return z.FreePages() > before
}

package cache

import "fmt"

// Latencies gives the access cost in virtual cycles for each level of
// the hierarchy. The gap between L1Hit and Memory is what makes the
// reload/probe timing measurements of CSCAs work in simulation.
type Latencies struct {
	L1Hit  uint64
	LLCHit uint64
	Memory uint64
	Flush  uint64 // clflush of a cached line; an uncached flush costs FlushMiss
	// FlushMiss is the (shorter) cost of flushing a line that is not
	// cached — the timing difference Flush+Flush measures.
	FlushMiss uint64
}

// DefaultLatencies roughly matches the latency ratios of a modern Intel
// part (L1 ~4 cycles, LLC ~40, DRAM ~200).
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 4, LLCHit: 40, Memory: 200, Flush: 130, FlushMiss: 90}
}

// HierarchyConfig configures a two-level hierarchy with split L1.
type HierarchyConfig struct {
	L1D Config
	L1I Config
	LLC Config // inclusive of both L1s
	Lat Latencies
}

// DefaultHierarchyConfig returns the configuration used across the
// reproduction: 4 KiB 8-way L1D/L1I and a 128 KiB 8-way inclusive LLC
// with 64-byte lines. The caches are deliberately smaller than real
// hardware so that eviction-set construction (Prime+Probe, Evict+Reload)
// stays cheap while preserving set-index arithmetic.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D: Config{Name: "L1D", Sets: 8, Ways: 8, LineSize: 64, Policy: LRU},
		L1I: Config{Name: "L1I", Sets: 8, Ways: 8, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "LLC", Sets: 256, Ways: 8, LineSize: 64, Policy: LRU},
		Lat: DefaultLatencies(),
	}
}

// AccessKind distinguishes data loads, data stores and instruction
// fetches in the hierarchy.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	Fetch
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AccessResult reports what one access did at each level; the execution
// engine converts this into HPC events and latency.
type AccessResult struct {
	Kind    AccessKind
	L1Hit   bool
	LLCHit  bool // meaningful only when !L1Hit
	Latency uint64
}

// Hierarchy is the shared two-level cache of the simulated machine.
type Hierarchy struct {
	l1d *Cache
	l1i *Cache
	llc *Cache
	lat Latencies
}

// NewHierarchy builds the hierarchy; all three configs must be valid.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	llc, err := New(cfg.LLC)
	if err != nil {
		return nil, err
	}
	if cfg.LLC.LineSize != cfg.L1D.LineSize || cfg.LLC.LineSize != cfg.L1I.LineSize {
		return nil, fmt.Errorf("hierarchy: all levels must share a line size")
	}
	return &Hierarchy{l1d: l1d, l1i: l1i, llc: llc, lat: cfg.Lat}, nil
}

// MustNewHierarchy panics on configuration errors.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// DefaultHierarchy builds the hierarchy of DefaultHierarchyConfig.
func DefaultHierarchy() *Hierarchy { return MustNewHierarchy(DefaultHierarchyConfig()) }

// L1D returns the level-1 data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L1I returns the level-1 instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Latencies returns the latency model.
func (h *Hierarchy) Latencies() Latencies { return h.lat }

// Access runs one access through the hierarchy, maintaining inclusion:
// an LLC eviction back-invalidates the corresponding L1 line.
func (h *Hierarchy) Access(addr uint64, kind AccessKind, owner Owner) AccessResult {
	l1 := h.l1d
	if kind == Fetch {
		l1 = h.l1i
	}
	res := AccessResult{Kind: kind}
	if hit, _, _ := l1.access(addr, owner); hit {
		res.L1Hit = true
		res.Latency = h.lat.L1Hit
		// Keep the LLC recency state warm for inclusive behaviour.
		h.llc.access(addr, owner)
		return res
	}
	llcHit, evicted, didEvict := h.llc.access(addr, owner)
	res.LLCHit = llcHit
	if llcHit {
		res.Latency = h.lat.LLCHit
	} else {
		res.Latency = h.lat.Memory
	}
	if didEvict {
		// Inclusion: the displaced LLC line leaves the L1s too.
		h.l1d.Flush(evicted.Addr)
		h.l1i.Flush(evicted.Addr)
	}
	return res
}

// Flush evicts the line containing addr from every level, returning the
// clflush latency (longer when the line was actually cached, which is
// the signal Flush+Flush measures) and whether any level held the line.
func (h *Hierarchy) Flush(addr uint64) (latency uint64, wasCached bool) {
	c1 := h.l1d.Flush(addr)
	c2 := h.l1i.Flush(addr)
	c3 := h.llc.Flush(addr)
	if c1 || c2 || c3 {
		return h.lat.Flush, true
	}
	return h.lat.FlushMiss, false
}

// Cached reports whether addr is present at any level (no state change).
func (h *Hierarchy) Cached(addr uint64) bool {
	return h.l1d.Lookup(addr) || h.l1i.Lookup(addr) || h.llc.Lookup(addr)
}

// InvalidateAll empties every level.
func (h *Hierarchy) InvalidateAll() {
	h.l1d.InvalidateAll()
	h.l1i.InvalidateAll()
	h.llc.InvalidateAll()
}

// FillAll fills every level with owner-tagged lines.
func (h *Hierarchy) FillAll(owner Owner) {
	h.l1d.FillAll(owner)
	h.l1i.FillAll(owner)
	h.llc.FillAll(owner)
}

// LLCSetIndex maps an address to its LLC set; the unit the paper's
// cache-set overlap analysis and SCADET's rules reason about.
func (h *Hierarchy) LLCSetIndex(addr uint64) int { return h.llc.SetIndex(addr) }

// Occupancy returns the LLC cache state with the given attacker owner.
// The LLC is the level CSCAs contend on across processes, so occupancy is
// measured there.
func (h *Hierarchy) Occupancy(attacker Owner) State { return h.llc.Occupancy(attacker) }

// Package cache implements the set-associative cache simulator that
// underlies both the execution engine (internal/exec) and SCAGuard's
// cache-state-transition measurement (internal/model).
//
// Lines are tagged with the id of the process that installed them, which
// is what lets the simulator report the paper's cache-state occupancy
// pair (AO, IO): the fraction of lines owned by the attack program and
// the fraction owned by everyone else (Definition 3 of the paper).
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Owner identifies which process installed a cache line. OwnerNone marks
// an empty line; the execution engine uses 0 for the attacker/target
// process and 1 for the victim.
type Owner int8

// OwnerNone marks an invalid (empty) line.
const OwnerNone Owner = -1

// Policy selects the replacement policy of a cache.
type Policy uint8

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes one cache level.
type Config struct {
	Name     string
	Sets     int // number of sets; must be a power of two
	Ways     int // associativity
	LineSize int // bytes per line; must be a power of two
	Policy   Policy
	Seed     int64 // rng seed for the Random policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: ways %d must be positive", c.Name, c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d must be a positive power of two", c.Name, c.LineSize)
	}
	return nil
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// SetIndex maps addr to its set index under this configuration: the
// function Cache.SetIndex computes, without building a cache.
func (c Config) SetIndex(addr uint64) int {
	return int((addr >> bits.TrailingZeros64(uint64(c.LineSize))) & uint64(c.Sets-1))
}

// Stats accumulates hit/miss/flush counts.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64 // lines actually removed by Flush
}

// Cache is one set-associative cache level. Create with New.
//
// The ways of set s are entries s*ways .. s*ways+ways-1 of three flat
// arrays. tags is scanned on every lookup. stamps orders victims — under
// LRU the tick of the last access, under FIFO the tick of the fill — and
// doubles as the valid bit: ticks start at 1, so a stamp is 0 exactly
// when its way is empty. owners records the process that last touched
// the line. An empty way's tag and owner never affect a result.
type Cache struct {
	cfg        Config
	tags       []uint64
	stamps     []uint64
	owners     []Owner
	ways       int
	tick       uint64
	rng        *rand.Rand // created on the first Random victim choice
	stats      Stats
	setShift   uint // log2(LineSize)
	tagShift   uint // log2(LineSize) + log2(Sets)
	setMask    uint64
	totalLines int
	usedLines  int
}

// New builds a cache from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setShift := uint(bits.TrailingZeros64(uint64(cfg.LineSize)))
	n := cfg.Sets * cfg.Ways
	words := make([]uint64, 2*n)
	return &Cache{
		cfg:        cfg,
		tags:       words[:n:n],
		stamps:     words[n:],
		owners:     make([]Owner, n),
		ways:       cfg.Ways,
		setShift:   setShift,
		tagShift:   setShift + uint(bits.TrailingZeros64(uint64(cfg.Sets))),
		setMask:    uint64(cfg.Sets - 1),
		totalLines: n,
	}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex maps an address to its set index.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.tagShift }

// find returns the entry of set si holding tag t, or -1.
func (c *Cache) find(si int, t uint64) int {
	base := si * c.ways
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == t && c.stamps[base+i] != 0 {
			return base + i
		}
	}
	return -1
}

// Lookup reports whether addr is cached, without disturbing any
// replacement state.
func (c *Cache) Lookup(addr uint64) bool {
	return c.find(c.SetIndex(addr), c.tag(addr)) >= 0
}

// EvictedLine describes a line displaced by a fill.
type EvictedLine struct {
	Addr  uint64
	Owner Owner
}

// Access performs a read or write of addr by owner. It returns whether
// the access hit, and (on a fill that displaced a valid line) the evicted
// line. Writes allocate like reads (write-allocate).
func (c *Cache) Access(addr uint64, owner Owner) (hit bool, evicted *EvictedLine) {
	hit, ev, didEvict := c.access(addr, owner)
	if didEvict {
		return false, &ev
	}
	return hit, nil
}

// access is Access returning the evicted line by value, so the
// hierarchy's hot path does not allocate one per eviction.
func (c *Cache) access(addr uint64, owner Owner) (hit bool, ev EvictedLine, evicted bool) {
	c.tick++
	si := c.SetIndex(addr)
	t := c.tag(addr)
	if i := c.find(si, t); i >= 0 {
		if c.cfg.Policy != FIFO {
			c.stamps[i] = c.tick
		}
		c.owners[i] = owner // the most recent toucher owns the line
		c.stats.Hits++
		return true, EvictedLine{}, false
	}
	c.stats.Misses++
	victim := c.chooseVictim(si)
	if c.stamps[victim] != 0 {
		c.stats.Evictions++
		ev = EvictedLine{Addr: c.reconstructAddr(c.tags[victim], si), Owner: c.owners[victim]}
		evicted = true
	} else {
		c.usedLines++
	}
	c.tags[victim], c.stamps[victim], c.owners[victim] = t, c.tick, owner
	return false, ev, evicted
}

func (c *Cache) reconstructAddr(tag uint64, setIdx int) uint64 {
	return tag<<c.tagShift | uint64(setIdx)<<c.setShift
}

// chooseVictim returns the entry of set si to fill.
func (c *Cache) chooseVictim(si int) int {
	base := si * c.ways
	set := c.stamps[base : base+c.ways]
	// Prefer an invalid way.
	for i, st := range set {
		if st == 0 {
			return base + i
		}
	}
	if c.cfg.Policy == Random {
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.cfg.Seed))
		}
		return base + c.rng.Intn(len(set))
	}
	// LRU and FIFO: the oldest stamp.
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i] < set[best] {
			best = i
		}
	}
	return base + best
}

// Flush removes the line containing addr, returning whether it was
// present (the timing signal Flush+Flush exploits).
func (c *Cache) Flush(addr uint64) bool {
	if i := c.find(c.SetIndex(addr), c.tag(addr)); i >= 0 {
		c.stamps[i] = 0
		c.stats.Flushes++
		c.usedLines--
		return true
	}
	return false
}

// InvalidateAll empties the cache (counters are preserved).
func (c *Cache) InvalidateAll() {
	clear(c.stamps)
	c.usedLines = 0
}

// FillAll installs owner-tagged lines in every way of every set, giving
// the "cache is full of data" initial condition used when measuring a
// CST (Section III-A3: IO=1, AO=0 when owner is not the attacker).
// Synthetic tags are used so the lines do not collide with program data.
func (c *Cache) FillAll(owner Owner) {
	c.tick++
	for i := range c.tags {
		c.tags[i] = ^uint64(0) - uint64(i%c.ways) // high tags, disjoint from real data
		c.stamps[i], c.owners[i] = c.tick, owner
	}
	c.usedLines = c.totalLines
}

// State is the paper's cache state (Definition 3): AO is the occupancy
// rate of lines owned by the attack program, IO the occupancy rate of
// valid lines owned by anyone else. AO+IO <= 1 always holds.
type State struct {
	AO float64
	IO float64
}

// Occupancy computes the cache state, treating attacker as "the attack
// program" of Definition 3.
func (c *Cache) Occupancy(attacker Owner) State {
	var ao, io int
	for i, st := range c.stamps {
		if st == 0 {
			continue
		}
		if c.owners[i] == attacker {
			ao++
		} else {
			io++
		}
	}
	total := float64(c.totalLines)
	return State{AO: float64(ao) / total, IO: float64(io) / total}
}

// UsedLines returns the number of valid lines.
func (c *Cache) UsedLines() int { return c.usedLines }

// TotalLines returns the line capacity.
func (c *Cache) TotalLines() int { return c.totalLines }

// OwnerOfLine returns the owner of the line containing addr, or
// OwnerNone when the line is absent.
func (c *Cache) OwnerOfLine(addr uint64) Owner {
	if i := c.find(c.SetIndex(addr), c.tag(addr)); i >= 0 {
		return c.owners[i]
	}
	return OwnerNone
}

// SetOccupants returns the number of valid lines in the set containing
// addr; SCADET-style rules use this to spot prime sweeps.
func (c *Cache) SetOccupants(addr uint64) int {
	base := c.SetIndex(addr) * c.ways
	n := 0
	for _, st := range c.stamps[base : base+c.ways] {
		if st != 0 {
			n++
		}
	}
	return n
}

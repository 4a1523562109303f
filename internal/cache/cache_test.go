package cache

import (
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64, Policy: LRU}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "s", Sets: 3, Ways: 2, LineSize: 64},
		{Name: "s", Sets: 0, Ways: 2, LineSize: 64},
		{Name: "s", Sets: 4, Ways: 0, LineSize: 64},
		{Name: "s", Sets: 4, Ways: 2, LineSize: 48},
		{Name: "s", Sets: 4, Ways: 2, LineSize: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should fail", i, c)
		}
	}
	if err := smallCfg().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if got := smallCfg().SizeBytes(); got != 4*2*64 {
		t.Errorf("SizeBytes = %d", got)
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New must propagate validation errors")
	}
}

func TestSetIndexAndLineAddr(t *testing.T) {
	c := MustNew(smallCfg())
	if c.SetIndex(0) != 0 || c.SetIndex(64) != 1 || c.SetIndex(64*4) != 0 {
		t.Error("SetIndex wrong")
	}
	if c.LineAddr(0x7f) != 0x40 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x7f))
	}
	llc := MustNew(DefaultHierarchyConfig().LLC)
	for _, cc := range []*Cache{c, llc} {
		for addr := uint64(0); addr < 1<<20; addr += 24 {
			if got, want := cc.Config().SetIndex(addr), cc.SetIndex(addr); got != want {
				t.Fatalf("%s: Config.SetIndex(%#x) = %d, Cache.SetIndex %d", cc.Config().Name, addr, got, want)
			}
		}
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := MustNew(smallCfg())
	hit, ev := c.Access(0x1000, 0)
	if hit || ev != nil {
		t.Error("cold access must miss without eviction")
	}
	hit, _ = c.Access(0x1000, 0)
	if !hit {
		t.Error("second access must hit")
	}
	// Same line, different offset.
	hit, _ = c.Access(0x103f, 0)
	if !hit {
		t.Error("same-line access must hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(smallCfg()) // 2 ways
	// Three addresses mapping to set 0: stride = sets*linesize = 256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, 0)
	c.Access(b, 0)
	c.Access(a, 0) // refresh a; b is now LRU
	_, ev := c.Access(d, 0)
	if ev == nil || ev.Addr != b {
		t.Fatalf("evicted = %+v, want addr %#x", ev, b)
	}
	if !c.Lookup(a) || c.Lookup(b) || !c.Lookup(d) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestFIFOEviction(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = FIFO
	c := MustNew(cfg)
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, 0)
	c.Access(b, 0)
	c.Access(a, 0) // refreshing does not matter for FIFO
	_, ev := c.Access(d, 0)
	if ev == nil || ev.Addr != a {
		t.Fatalf("evicted = %+v, want addr %#x (FIFO)", ev, a)
	}
}

func TestRandomEvictionDeterministic(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = Random
	cfg.Seed = 7
	run := func() []bool {
		c := MustNew(cfg)
		for i := uint64(0); i < 8; i++ {
			c.Access(i*256, 0)
		}
		var out []bool
		for i := uint64(0); i < 8; i++ {
			out = append(out, c.Lookup(i*256))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy must be deterministic for a fixed seed")
		}
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x40, 0)
	if !c.Flush(0x40) {
		t.Error("flush of cached line must report true")
	}
	if c.Flush(0x40) {
		t.Error("flush of uncached line must report false")
	}
	if c.Lookup(0x40) {
		t.Error("line still present after flush")
	}
	if c.Stats().Flushes != 1 {
		t.Errorf("flush count = %d", c.Stats().Flushes)
	}
}

func TestOccupancyAndFillAll(t *testing.T) {
	c := MustNew(smallCfg())
	st := c.Occupancy(0)
	if st.AO != 0 || st.IO != 0 {
		t.Errorf("empty occupancy = %+v", st)
	}
	c.FillAll(1)
	st = c.Occupancy(0)
	if st.AO != 0 || st.IO != 1 {
		t.Errorf("filled occupancy = %+v, want AO=0 IO=1", st)
	}
	// Attacker touches one line; with 8 lines total AO=1/8 and IO=7/8.
	c.Access(0, 0)
	st = c.Occupancy(0)
	if st.AO != 0.125 || st.IO != 0.875 {
		t.Errorf("occupancy after one attacker access = %+v", st)
	}
	if st.AO+st.IO > 1 {
		t.Error("AO+IO must never exceed 1")
	}
	if c.UsedLines() != c.TotalLines() {
		t.Errorf("used = %d, total = %d", c.UsedLines(), c.TotalLines())
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0, 0)
	c.Access(64, 1)
	c.InvalidateAll()
	if c.UsedLines() != 0 || c.Lookup(0) || c.Lookup(64) {
		t.Error("InvalidateAll left state behind")
	}
}

func TestOwnerOfLine(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0, 1)
	if c.OwnerOfLine(0) != 1 {
		t.Error("owner not recorded")
	}
	// A hit by another process re-tags the line.
	c.Access(0, 0)
	if c.OwnerOfLine(0) != 0 {
		t.Error("owner not re-tagged on hit")
	}
	if c.OwnerOfLine(0x4000) != OwnerNone {
		t.Error("missing line must report OwnerNone")
	}
}

func TestSetOccupants(t *testing.T) {
	c := MustNew(smallCfg())
	if c.SetOccupants(0) != 0 {
		t.Error("empty set must have 0 occupants")
	}
	c.Access(0, 0)
	c.Access(256, 0) // same set
	c.Access(64, 0)  // different set
	if got := c.SetOccupants(0); got != 2 {
		t.Errorf("set 0 occupants = %d, want 2", got)
	}
	if got := c.SetOccupants(64); got != 1 {
		t.Errorf("set 1 occupants = %d, want 1", got)
	}
}

// Property: for any access sequence, AO+IO <= 1, used lines never exceed
// capacity, and a Lookup right after Access(addr) always succeeds.
func TestCacheInvariants(t *testing.T) {
	f := func(addrs []uint16, owners []uint8) bool {
		c := MustNew(smallCfg())
		for i, a := range addrs {
			owner := Owner(0)
			if i < len(owners) && owners[i]%2 == 1 {
				owner = 1
			}
			c.Access(uint64(a), owner)
			if !c.Lookup(uint64(a)) {
				return false
			}
			st := c.Occupancy(0)
			if st.AO+st.IO > 1.0000001 || st.AO < 0 || st.IO < 0 {
				return false
			}
			if c.UsedLines() > c.TotalLines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy must still render")
	}
}

// --- hierarchy ----------------------------------------------------------

func TestHierarchyAccessLevels(t *testing.T) {
	h := DefaultHierarchy()
	lat := h.Latencies()

	// Cold load: memory latency.
	r := h.Access(0x1000, Load, 0)
	if r.L1Hit || r.LLCHit || r.Latency != lat.Memory {
		t.Errorf("cold access = %+v", r)
	}
	// Warm load: L1 hit.
	r = h.Access(0x1000, Load, 0)
	if !r.L1Hit || r.Latency != lat.L1Hit {
		t.Errorf("warm access = %+v", r)
	}
	// Evict from L1 only (fill the L1 set), then expect an LLC hit.
	h2 := DefaultHierarchy()
	h2.Access(0x0, Load, 0)
	cfg := DefaultHierarchyConfig()
	l1Stride := uint64(cfg.L1D.Sets * cfg.L1D.LineSize)
	for i := uint64(1); i <= uint64(cfg.L1D.Ways); i++ {
		h2.Access(i*l1Stride*uint64(cfg.LLC.Sets/cfg.L1D.Sets), Load, 0)
	}
	// 0x0 may or may not be L1-resident depending on LLC sets mapping;
	// instead evict directly via a known conflict: use addresses with the
	// same L1 set but different LLC sets.
	h3 := DefaultHierarchy()
	base := uint64(0)
	h3.Access(base, Load, 0)
	for i := uint64(1); i <= uint64(cfg.L1D.Ways); i++ {
		// Same L1 set (stride 512 = 8 sets * 64B), different LLC sets.
		h3.Access(base+i*512, Load, 0)
	}
	r = h3.Access(base, Load, 0)
	if r.L1Hit {
		t.Fatal("expected L1 eviction of base")
	}
	if !r.LLCHit || r.Latency != lat.LLCHit {
		t.Errorf("expected LLC hit, got %+v", r)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x2000, Fetch, 0)
	if h.L1D().Lookup(0x2000) {
		t.Error("fetch must not fill L1D")
	}
	if !h.L1I().Lookup(0x2000) || !h.LLC().Lookup(0x2000) {
		t.Error("fetch must fill L1I and LLC")
	}
}

func TestHierarchyFlushTiming(t *testing.T) {
	h := DefaultHierarchy()
	lat := h.Latencies()
	h.Access(0x3000, Load, 0)
	l, cached := h.Flush(0x3000)
	if !cached || l != lat.Flush {
		t.Errorf("flush of cached line = (%d,%v)", l, cached)
	}
	l, cached = h.Flush(0x3000)
	if cached || l != lat.FlushMiss {
		t.Errorf("flush of uncached line = (%d,%v)", l, cached)
	}
	if h.Cached(0x3000) {
		t.Error("line survived flush")
	}
}

func TestHierarchyInclusion(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	// Tiny LLC forces evictions quickly.
	cfg.LLC = Config{Name: "LLC", Sets: 8, Ways: 2, LineSize: 64, Policy: LRU}
	h := MustNewHierarchy(cfg)
	// Two lines in the same LLC set (stride 8*64=512); same L1D set too.
	h.Access(0, Load, 0)
	h.Access(512, Load, 0)
	// Third conflicting line evicts LRU (0) from LLC; inclusion must
	// remove it from L1D as well.
	h.Access(1024, Load, 0)
	if h.L1D().Lookup(0) {
		t.Error("inclusion violated: line in L1D but evicted from LLC")
	}
	if h.LLC().Lookup(0) {
		t.Error("line 0 should be gone from LLC")
	}
}

func TestHierarchyFillAllAndOccupancy(t *testing.T) {
	h := DefaultHierarchy()
	h.FillAll(1)
	st := h.Occupancy(0)
	if st.AO != 0 || st.IO != 1 {
		t.Errorf("occupancy after FillAll = %+v", st)
	}
	h.InvalidateAll()
	st = h.Occupancy(0)
	if st.AO != 0 || st.IO != 0 {
		t.Errorf("occupancy after InvalidateAll = %+v", st)
	}
}

func TestHierarchyLineSizeMismatch(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1D.LineSize = 32
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("line size mismatch must fail")
	}
	cfg2 := DefaultHierarchyConfig()
	cfg2.LLC.Sets = 3
	if _, err := NewHierarchy(cfg2); err == nil {
		t.Error("invalid level config must fail")
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Fetch.String() != "fetch" {
		t.Error("kind names wrong")
	}
}

// Flush+Reload end-to-end at the cache level: flushing then letting the
// "victim" touch the line makes the attacker's reload fast; without the
// victim access the reload is slow. This is the core timing channel.
func TestFlushReloadChannel(t *testing.T) {
	h := DefaultHierarchy()
	shared := uint64(0x10000)

	// Round 1: victim accesses the shared line after the flush.
	h.Flush(shared)
	h.Access(shared, Load, 1) // victim
	r := h.Access(shared, Load, 0)
	fast := r.Latency

	// Round 2: victim stays quiet.
	h.Flush(shared)
	r = h.Access(shared, Load, 0)
	slow := r.Latency

	if fast >= slow {
		t.Errorf("flush+reload channel broken: fast=%d slow=%d", fast, slow)
	}
}

package exec

import "encoding/binary"

// Memory is a sparse, page-granular byte-addressable physical memory.
// Attacker and victim programs live in one flat physical address space,
// which is how shared library pages (Flush+Reload) and set-index aliasing
// (Prime+Probe) arise naturally.
type Memory struct {
	pages map[uint64][]byte
	// lastPN/last remember the most recently used page: consecutive
	// accesses mostly stay on one page.
	lastPN uint64
	last   []byte
}

const pageShift = 12
const pageSize = 1 << pageShift

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

func (m *Memory) page(addr uint64, create bool) []byte {
	pn := addr >> pageShift
	if m.last != nil && pn == m.lastPN {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	m.lastPN, m.last = pn, p
	return p
}

// LoadByte reads one byte (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	p := m.page(addr, true)
	p[addr&(pageSize-1)] = v
}

// Load64 reads a little-endian 64-bit word at any alignment.
func (m *Memory) Load64(addr uint64) uint64 {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// Store64 writes a little-endian 64-bit word at any alignment.
func (m *Memory) Store64(addr uint64, v uint64) {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr, true)[addr&(pageSize-1):], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// PageCount returns the number of touched pages (for tests).
func (m *Memory) PageCount() int { return len(m.pages) }

package isa

// CodeIndex maps a program's code addresses to instruction positions and
// resolves every instruction's fallthrough and static branch target to a
// position, so that running the program costs no map lookup per step.
// Program.Validate builds it once and keeps it while the instructions
// are unchanged. A CodeIndex is never modified after construction,
// which makes it safe to share between goroutines running the same
// program.
type CodeIndex struct {
	// base is the lowest code address; pos[a-base] is the position of
	// the instruction at a plus one (0: no instruction starts at a).
	base uint64
	pos  []int32
	// sparse replaces pos when the code spans too wide an address range
	// for a dense table (programs merged from distant code bases).
	sparse map[uint64]int32
	next   []int32 // position of Insns[i].Next(), or -1
	target []int32 // position of Insns[i]'s static branch target, or -1
}

// maxDenseBytesPerInsn bounds the dense table at this many entries (one
// per code byte) per instruction; wider code falls back to a map.
const maxDenseBytesPerInsn = 64

// buildCodeIndex indexes insns. Duplicate addresses resolve to the last
// instruction; Validate rejects them anyway.
func buildCodeIndex(insns []Instruction) *CodeIndex {
	x := &CodeIndex{next: make([]int32, len(insns)), target: make([]int32, len(insns))}
	if len(insns) > 0 {
		lo, hi := insns[0].Addr, insns[0].Addr
		for _, in := range insns {
			lo, hi = min(lo, in.Addr), max(hi, in.Addr)
		}
		x.base = lo
		if hi-lo < uint64(maxDenseBytesPerInsn*len(insns)) {
			x.pos = make([]int32, hi-lo+1)
			for i, in := range insns {
				x.pos[in.Addr-lo] = int32(i) + 1
			}
		} else {
			x.sparse = make(map[uint64]int32, len(insns))
			for i, in := range insns {
				x.sparse[in.Addr] = int32(i)
			}
		}
	}
	for i, in := range insns {
		x.next[i], x.target[i] = x.resolved(in)
	}
	return x
}

// resolved returns the positions of in's fallthrough and static branch
// target under x, -1 where there is none.
func (x *CodeIndex) resolved(in Instruction) (next, target int32) {
	target = -1
	if t, ok := in.BranchTarget(); ok {
		target = x.lookup(t)
	}
	return x.lookup(in.Next()), target
}

// lookup returns the position of the instruction at addr, or -1.
func (x *CodeIndex) lookup(addr uint64) int32 {
	if x.sparse != nil {
		if i, ok := x.sparse[addr]; ok {
			return i
		}
		return -1
	}
	if off := addr - x.base; off < uint64(len(x.pos)) {
		return x.pos[off] - 1
	}
	return -1
}

// matches reports whether indexing insns again would give x: every
// instruction sits at its position and resolves to the same fallthrough
// and target. Since x holds exactly one entry per instruction it was
// built from, n distinct addresses found at positions 0..n-1 are all of
// its entries.
func (x *CodeIndex) matches(insns []Instruction) bool {
	if len(insns) != len(x.next) {
		return false
	}
	for i, in := range insns {
		if x.lookup(in.Addr) != int32(i) {
			return false
		}
		if next, target := x.resolved(in); next != x.next[i] || target != x.target[i] {
			return false
		}
	}
	return true
}

// Index returns the position of the instruction at addr.
func (x *CodeIndex) Index(addr uint64) (int, bool) {
	i := x.lookup(addr)
	return int(i), i >= 0
}

// Next returns the position of the instruction that follows position i
// in memory, or -1 when no instruction starts there.
func (x *CodeIndex) Next(i int) int { return int(x.next[i]) }

// Target returns the position of the static branch target of the
// instruction at position i, or -1 when it has none or the target is
// not an instruction.
func (x *CodeIndex) Target(i int) int { return int(x.target[i]) }

// Package exec executes ISA programs on top of the cache simulator,
// standing in for the paper's real-hardware data collection (perf HPC
// sampling + Intel PT address tracing). A Machine interleaves up to two
// processes — the monitored program and an optional victim — over one
// shared cache hierarchy, models a 2-bit branch predictor with a bounded
// speculative window (enough for Spectre v1 transient leakage), and
// produces a Trace: HPC events attributed per instruction address,
// accessed/flushed cache lines per instruction, first-execution
// timestamps, a chronological cache-set trace and windowed HPC samples.
package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hpc"
	"repro/internal/isa"
)

// Config tunes a Machine.
type Config struct {
	Hierarchy cache.HierarchyConfig
	// MaxRetired bounds the number of instructions the monitored process
	// may retire (0 means DefaultMaxRetired).
	MaxRetired uint64
	// Quantum is the round-robin scheduling quantum in instructions.
	Quantum int
	// SpecWindow is the transient-execution window in instructions;
	// 0 disables speculation entirely.
	SpecWindow int
	// WindowWidth is the HPC sampling window in cycles.
	WindowWidth uint64
	// MaxSetTrace caps the cache-set trace length (0 = DefaultMaxSetTrace).
	MaxSetTrace int
	// RecordEvents enables the chronological event log (Trace.Events),
	// the replayable record the sliding-window detector consumes. Off by
	// default: the log costs memory proportional to trace activity.
	RecordEvents bool
	// MaxEvents caps the event log length (0 = DefaultMaxEvents). On
	// overflow recording stops and Trace.EventsTruncated is set.
	MaxEvents int
	// PredictorSize is the direction-predictor table size.
	PredictorSize int
	// Protected lists address ranges an architectural data access may
	// not touch: a retired load or store inside one faults (halting the
	// process), but a transient load passes through — the Meltdown-type
	// behavior where the permission check lags the data read.
	Protected []AddrRange
}

// AddrRange is a half-open address interval [Base, Base+Size).
type AddrRange struct {
	Base, Size uint64
}

// Contains reports whether addr falls in the range.
func (r AddrRange) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// Defaults for Config zero fields.
const (
	DefaultMaxRetired  = 2_000_000
	DefaultQuantum     = 32
	DefaultSpecWindow  = 48
	DefaultMaxSetTrace = 1 << 20
	DefaultMaxEvents   = 1 << 22
)

// DefaultConfig returns the configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		Hierarchy:  cache.DefaultHierarchyConfig(),
		MaxRetired: DefaultMaxRetired,
		Quantum:    DefaultQuantum,
		SpecWindow: DefaultSpecWindow,
	}
}

func (c Config) withDefaults() Config {
	if c.Hierarchy.L1D.Sets == 0 {
		c.Hierarchy = cache.DefaultHierarchyConfig()
	}
	if c.MaxRetired == 0 {
		c.MaxRetired = DefaultMaxRetired
	}
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.MaxSetTrace == 0 {
		c.MaxSetTrace = DefaultMaxSetTrace
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	return c
}

// flags is the condition state left by the last flag-setting instruction.
type flags struct {
	zf    bool // zero
	lt    bool // signed less-than
	below bool // unsigned below
}

// proc is one running process.
type proc struct {
	insns   []isa.Instruction
	code    *isa.CodeIndex
	regs    [isa.NumRegs]uint64
	fl      flags
	pc      uint64
	pos     int // position of pc in code, -1 when pc is not an instruction
	halted  bool
	owner   cache.Owner
	retired uint64
}

// stack placement: each process gets a disjoint 1 MiB stack.
const stackTop = 0x7f00_0000
const stackGap = 0x0010_0000

// Machine executes one monitored process and an optional victim over a
// shared cache hierarchy.
type Machine struct {
	cfg    Config
	mem    *Memory
	hier   *cache.Hierarchy
	pred   *BranchPredictor
	procs  []*proc
	cycles uint64
	trace  *Trace
	// slots holds the trace state of each instruction position of the
	// monitored program (see addrSlot).
	slots []addrSlot
}

// NewMachine builds a machine running the monitored program and an
// optional victim (nil for none). Data segments of both programs are
// materialized in memory before execution.
func NewMachine(cfg Config, monitored *isa.Program, victim *isa.Program) (*Machine, error) {
	if victim == nil {
		return NewMachineMulti(cfg, monitored)
	}
	return NewMachineMulti(cfg, monitored, victim)
}

// NewMachineMulti builds a machine with any number of co-running
// processes besides the monitored one — victims, and noisy co-tenants
// for robustness experiments. All processes share the cache hierarchy;
// only the first (monitored) one is traced.
func NewMachineMulti(cfg Config, monitored *isa.Program, others ...*isa.Program) (*Machine, error) {
	cfg = cfg.withDefaults()
	if monitored == nil {
		return nil, fmt.Errorf("exec: monitored program is nil")
	}
	hier, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		mem:   NewMemory(),
		hier:  hier,
		pred:  NewBranchPredictor(cfg.PredictorSize),
		trace: newTrace(cfg.WindowWidth, cfg.MaxSetTrace, cfg.RecordEvents, cfg.MaxEvents),
	}
	progs := []*isa.Program{monitored}
	for _, o := range others {
		if o == nil {
			return nil, fmt.Errorf("exec: nil co-running program")
		}
		progs = append(progs, o)
	}
	for i, pr := range progs {
		if err := pr.Validate(); err != nil {
			return nil, err
		}
		for _, d := range pr.Data {
			if len(d.Init) > 0 {
				m.mem.WriteBytes(d.Addr, d.Init)
			}
		}
		code := pr.CodeIndex()
		pos, _ := code.Index(pr.Entry)
		p := &proc{insns: pr.Insns, code: code, pc: pr.Entry, pos: pos, owner: cache.Owner(i)}
		p.regs[isa.R14] = uint64(stackTop - i*stackGap)
		m.procs = append(m.procs, p)
	}
	m.slots = make([]addrSlot, len(monitored.Insns))
	for i, in := range monitored.Insns {
		m.slots[i].pc = in.Addr
	}
	return m, nil
}

// Hierarchy exposes the shared cache hierarchy (tests, occupancy checks).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Memory exposes physical memory (tests, victim secret setup).
func (m *Machine) Memory() *Memory { return m.mem }

// Cycles returns the current virtual time.
func (m *Machine) Cycles() uint64 { return m.cycles }

// RegisterOfMonitored returns the architectural value of a register of
// the monitored process; useful for result inspection after Run.
func (m *Machine) RegisterOfMonitored(r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return m.procs[0].regs[r]
}

// Run interleaves the processes round-robin until the monitored process
// halts or its retired-instruction budget is exhausted, then returns the
// trace. Run may be called once per Machine.
func (m *Machine) Run() *Trace {
	mon := m.procs[0]
	for !mon.halted && mon.retired < m.cfg.MaxRetired {
		progress := false
		for i, p := range m.procs {
			if p.halted {
				continue
			}
			for q := 0; q < m.cfg.Quantum && !p.halted; q++ {
				m.step(p, i == 0)
				progress = true
				if i == 0 && (p.halted || p.retired >= m.cfg.MaxRetired) {
					break
				}
			}
			if mon.halted || mon.retired >= m.cfg.MaxRetired {
				break
			}
		}
		if !progress {
			break
		}
	}
	m.trace.Halted = mon.halted
	m.trace.finish(m.cycles)
	return m.trace
}

// ea computes an effective address from a memory operand and a register
// file.
func ea(op *isa.Operand, regs *[isa.NumRegs]uint64) uint64 {
	var a uint64
	if op.Base != isa.RegNone {
		a += regs[op.Base]
	}
	if op.Index != isa.RegNone {
		s := uint64(op.Scale)
		if s == 0 {
			s = 1
		}
		a += regs[op.Index] * s
	}
	return a + uint64(op.Disp)
}

// fireAccessEvents converts one cache access result into HPC events
// attributed to the monitored instruction of slot s; nil s (an
// unmonitored process) records nothing.
func (m *Machine) fireAccessEvents(res cache.AccessResult, s *addrSlot) {
	if s == nil {
		return
	}
	t := m.trace
	cyc := m.cycles
	switch res.Kind {
	case cache.Load:
		if res.L1Hit {
			t.fire(hpc.L1DLoadHit, s, cyc)
			return
		}
		t.fire(hpc.L1DLoadMiss, s, cyc)
		if res.LLCHit {
			t.fire(hpc.LLCLoadHit, s, cyc)
		} else {
			t.fire(hpc.LLCLoadMiss, s, cyc)
			t.fire(hpc.CacheMiss, s, cyc)
		}
	case cache.Store:
		if res.L1Hit {
			t.fire(hpc.L1DStoreHit, s, cyc)
			return
		}
		if res.LLCHit {
			t.fire(hpc.LLCStoreHit, s, cyc)
		} else {
			t.fire(hpc.LLCStoreMiss, s, cyc)
			t.fire(hpc.CacheMiss, s, cyc)
		}
	case cache.Fetch:
		if !res.L1Hit {
			t.fire(hpc.L1ILoadMiss, s, cyc)
			if !res.LLCHit {
				t.fire(hpc.CacheMiss, s, cyc)
			}
		}
	}
}

// traceData records a data access of the monitored instruction of slot s
// in its record and the cache-set trace; nil s records nothing.
func (m *Machine) traceData(s *addrSlot, addr uint64, kind SetAccessKind) {
	if s == nil {
		return
	}
	llc := m.hier.LLC()
	line := llc.LineAddr(addr)
	if kind == SetFlush {
		m.trace.flushLine(s, line, m.cycles)
	} else {
		m.trace.memLine(s, line, m.cycles)
	}
	m.trace.setAccess(m.cycles, llc.SetIndex(addr), line, kind, s.pc)
}

// protectedAt reports whether an architectural access to addr faults.
func (m *Machine) protectedAt(addr uint64) bool {
	for _, r := range m.cfg.Protected {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// load performs an architectural data load.
func (m *Machine) load(p *proc, s *addrSlot, addr uint64) uint64 {
	if m.protectedAt(addr) {
		// Permission fault: the access never completes architecturally.
		p.halted = true
		return 0
	}
	res := m.hier.Access(addr, cache.Load, p.owner)
	m.cycles += res.Latency
	m.fireAccessEvents(res, s)
	m.traceData(s, addr, SetRead)
	return m.mem.Load64(addr)
}

// store performs an architectural data store.
func (m *Machine) store(p *proc, s *addrSlot, addr, val uint64) {
	if m.protectedAt(addr) {
		p.halted = true
		return
	}
	res := m.hier.Access(addr, cache.Store, p.owner)
	m.cycles += res.Latency
	m.fireAccessEvents(res, s)
	m.traceData(s, addr, SetWrite)
	m.mem.Store64(addr, val)
}

// readOperand evaluates a source operand architecturally.
func (m *Machine) readOperand(p *proc, s *addrSlot, op *isa.Operand) uint64 {
	switch op.Kind {
	case isa.OpReg:
		return p.regs[op.Base]
	case isa.OpImm:
		return uint64(op.Disp)
	case isa.OpMem:
		return m.load(p, s, ea(op, &p.regs))
	}
	return 0
}

// writeOperand writes an architectural destination operand.
func (m *Machine) writeOperand(p *proc, s *addrSlot, op *isa.Operand, val uint64) {
	switch op.Kind {
	case isa.OpReg:
		p.regs[op.Base] = val
	case isa.OpMem:
		m.store(p, s, ea(op, &p.regs), val)
	}
}

func alu(op isa.Opcode, a, b uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.XOR:
		return a ^ b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	case isa.INC:
		return a + 1
	case isa.DEC:
		return a - 1
	}
	return a
}

func setResultFlags(fl *flags, res uint64) {
	fl.zf = res == 0
	fl.lt = int64(res) < 0
	fl.below = false
}

func evalCond(op isa.Opcode, fl flags) bool {
	switch op {
	case isa.JE:
		return fl.zf
	case isa.JNE:
		return !fl.zf
	case isa.JL:
		return fl.lt
	case isa.JLE:
		return fl.lt || fl.zf
	case isa.JG:
		return !fl.lt && !fl.zf
	case isa.JGE:
		return !fl.lt
	case isa.JB:
		return fl.below
	case isa.JAE:
		return !fl.below
	}
	return false
}

// fallthroughPC is in.Next() without the copy of the instruction a
// value-receiver call makes on the hot path.
func fallthroughPC(in *isa.Instruction) uint64 { return in.Addr + uint64(in.Size) }

// resolve returns the position of addr, where control goes after the
// instruction at position pos, or -1 when addr is not an instruction.
// The fallthrough and the static branch target come pre-resolved from
// the code index; only indirect jumps and returns look addr up.
func (p *proc) resolve(pos int, addr uint64) int {
	in := &p.insns[pos]
	switch {
	case addr == fallthroughPC(in):
		return p.code.Next(pos)
	case p.code.Target(pos) >= 0 && addr == uint64(in.Dst.Disp):
		return p.code.Target(pos)
	}
	if i, ok := p.code.Index(addr); ok {
		return i
	}
	return -1
}

// step retires one instruction of p. monitored marks the traced
// process.
func (m *Machine) step(p *proc, monitored bool) {
	pc, pos := p.pc, p.pos
	if pos < 0 {
		// Fell off the program (fault): halt.
		p.halted = true
		return
	}
	in := &p.insns[pos]
	var s *addrSlot
	if monitored {
		s = &m.slots[pos]
	}

	// Instruction fetch through the I-cache.
	fres := m.hier.Access(pc, cache.Fetch, p.owner)
	m.cycles += fres.Latency / 4 // fetch overlaps with execution
	m.fireAccessEvents(fres, s)

	m.cycles++ // base execution cost
	nextPC := fallthroughPC(in)

	switch in.Op {
	case isa.NOP, isa.LFENCE, isa.MFENCE:
		// no architectural effect

	case isa.HLT:
		p.halted = true

	case isa.MOV:
		v := m.readOperand(p, s, &in.Src)
		m.writeOperand(p, s, &in.Dst, v)

	case isa.LEA:
		p.regs[in.Dst.Base] = ea(&in.Src, &p.regs)

	case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		a := m.readOperand(p, s, &in.Dst)
		b := m.readOperand(p, s, &in.Src)
		r := alu(in.Op, a, b)
		m.writeOperand(p, s, &in.Dst, r)
		setResultFlags(&p.fl, r)

	case isa.INC, isa.DEC:
		a := m.readOperand(p, s, &in.Dst)
		r := alu(in.Op, a, 0)
		m.writeOperand(p, s, &in.Dst, r)
		setResultFlags(&p.fl, r)

	case isa.CMP:
		a := m.readOperand(p, s, &in.Dst)
		b := m.readOperand(p, s, &in.Src)
		p.fl.zf = a == b
		p.fl.lt = int64(a) < int64(b)
		p.fl.below = a < b

	case isa.TEST:
		a := m.readOperand(p, s, &in.Dst)
		b := m.readOperand(p, s, &in.Src)
		setResultFlags(&p.fl, a&b)

	case isa.PUSH:
		v := m.readOperand(p, s, &in.Dst)
		p.regs[isa.R14] -= 8
		m.store(p, s, p.regs[isa.R14], v)

	case isa.POP:
		v := m.load(p, s, p.regs[isa.R14])
		p.regs[isa.R14] += 8
		m.writeOperand(p, s, &in.Dst, v)

	case isa.CLFLUSH:
		addr := ea(&in.Dst, &p.regs)
		lat, wasCached := m.hier.Flush(addr)
		m.cycles += lat
		m.traceData(s, addr, SetFlush)
		if s != nil && wasCached {
			// The forced eviction reaches memory (writeback path);
			// HPCs observe it as a cache miss, which is what makes
			// flush-phase blocks visible to the modeling pipeline.
			m.trace.fire(hpc.CacheMiss, s, m.cycles)
		}

	case isa.RDTSCP:
		p.regs[in.Dst.Base] = m.cycles
		if s != nil {
			m.trace.fire(hpc.Timestamp, s, m.cycles)
		}

	case isa.JMP:
		if in.Dst.Kind == isa.OpImm {
			nextPC = uint64(in.Dst.Disp)
		} else {
			// Indirect jump: the front end fetches from the BTB's stale
			// target until the real one resolves — the Spectre-v2
			// branch-target-injection window.
			actual := m.readOperand(p, s, &in.Dst)
			predicted, had := m.pred.UpdateIndirect(pc, actual)
			if !had {
				if s != nil {
					m.trace.fire(hpc.BranchLoadMiss, s, m.cycles)
				}
			} else if predicted != actual {
				if s != nil {
					m.trace.fire(hpc.BranchMiss, s, m.cycles)
				}
				m.cycles += 15
				if m.cfg.SpecWindow > 0 {
					m.speculate(p, predicted, monitored)
				}
			}
			nextPC = actual
		}

	case isa.CALL:
		p.regs[isa.R14] -= 8
		m.store(p, s, p.regs[isa.R14], fallthroughPC(in))
		if in.Dst.Kind == isa.OpImm {
			nextPC = uint64(in.Dst.Disp)
		} else {
			nextPC = p.regs[in.Dst.Base]
		}

	case isa.RET:
		nextPC = m.load(p, s, p.regs[isa.R14])
		p.regs[isa.R14] += 8

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
		taken := evalCond(in.Op, p.fl)
		target := uint64(in.Dst.Disp)
		predictedTaken := m.pred.PredictTaken(pc)
		mispredicted, btbMiss := m.pred.Update(pc, taken, target)
		if s != nil {
			if mispredicted {
				m.trace.fire(hpc.BranchMiss, s, m.cycles)
			}
			if btbMiss {
				m.trace.fire(hpc.BranchLoadMiss, s, m.cycles)
			}
		}

		if mispredicted {
			m.cycles += 15 // misprediction penalty
			if m.cfg.SpecWindow > 0 {
				// The transient path is the one the predictor chose.
				wrongPC := fallthroughPC(in)
				if predictedTaken {
					wrongPC = target
				}
				m.speculate(p, wrongPC, monitored)
			}
		}
		if taken {
			nextPC = target
		}
	}

	p.pc = nextPC
	p.pos = p.resolve(pos, nextPC)
	p.retired++
	if s != nil {
		m.trace.retire(s, m.cycles)
		m.trace.tickWindows(m.cycles)
	}
}

// speculate executes the transient wrong path: loads touch the cache for
// real (the Spectre leak) but stores, flushes and architectural state are
// squashed. Events observed transiently are attributed to the transient
// instruction addresses, mirroring how HPCs count speculative cache
// traffic on real parts.
func (m *Machine) speculate(p *proc, startPC uint64, monitored bool) {
	regs := p.regs // copy of the architectural register file
	fl := p.fl
	pos, ok := p.code.Index(startPC)
	for i := 0; i < m.cfg.SpecWindow && ok; i++ {
		in := &p.insns[pos]
		if in.Op.IsSerializing() {
			return
		}
		var s *addrSlot
		if monitored {
			s = &m.slots[pos]
		}
		next := fallthroughPC(in)
		switch in.Op {
		case isa.NOP:
		case isa.MOV:
			if in.Dst.Kind == isa.OpReg {
				regs[in.Dst.Base] = m.specRead(p, s, &in.Src, &regs)
			}
			// Transient stores stay in the store buffer: no effect.
		case isa.LEA:
			regs[in.Dst.Base] = ea(&in.Src, &regs)
		case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
			if in.Dst.Kind == isa.OpReg {
				r := alu(in.Op, regs[in.Dst.Base], m.specRead(p, s, &in.Src, &regs))
				regs[in.Dst.Base] = r
				setResultFlags(&fl, r)
			}
		case isa.INC, isa.DEC:
			if in.Dst.Kind == isa.OpReg {
				r := alu(in.Op, regs[in.Dst.Base], 0)
				regs[in.Dst.Base] = r
				setResultFlags(&fl, r)
			}
		case isa.CMP:
			a := m.specRead(p, s, &in.Dst, &regs)
			b := m.specRead(p, s, &in.Src, &regs)
			fl.zf, fl.lt, fl.below = a == b, int64(a) < int64(b), a < b
		case isa.TEST:
			a := m.specRead(p, s, &in.Dst, &regs)
			setResultFlags(&fl, a&m.specRead(p, s, &in.Src, &regs))
		case isa.JMP:
			if in.Dst.Kind == isa.OpImm {
				next = uint64(in.Dst.Disp)
			} else {
				next = regs[in.Dst.Base]
			}
		case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
			if evalCond(in.Op, fl) {
				next = uint64(in.Dst.Disp)
			}
		case isa.CALL, isa.RET, isa.PUSH, isa.POP, isa.CLFLUSH:
			// Squash-side-effect-heavy ops end the transient window here.
			return
		case isa.HLT:
			return
		}
		if monitored {
			m.trace.Transient++
		}
		pos = p.resolve(pos, next)
		ok = pos >= 0
	}
}

// specRead evaluates a source operand on the transient path: a memory
// operand is a real cache access (the leak) against the transient
// register file regs.
func (m *Machine) specRead(p *proc, s *addrSlot, op *isa.Operand, regs *[isa.NumRegs]uint64) uint64 {
	switch op.Kind {
	case isa.OpReg:
		return regs[op.Base]
	case isa.OpImm:
		return uint64(op.Disp)
	case isa.OpMem:
		addr := ea(op, regs)
		res := m.hier.Access(addr, cache.Load, p.owner)
		m.cycles += res.Latency / 2 // overlapped with recovery
		m.fireAccessEvents(res, s)
		m.traceData(s, addr, SetRead)
		return m.mem.Load64(addr)
	}
	return 0
}

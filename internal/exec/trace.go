package exec

import (
	"sort"

	"repro/internal/hpc"
)

// AddrRecord aggregates everything observed about one instruction
// address of the monitored process: how often it retired, when it first
// did, and which memory lines it touched or flushed. Together with the
// HPC bank this is the runtime information Section III-A of the paper
// collects via perf and Intel PT.
type AddrRecord struct {
	ExecCount  uint64
	FirstCycle uint64
	// MemLines holds line-aligned data addresses read or written by the
	// instruction (architecturally or transiently).
	MemLines map[uint64]struct{}
	// FlushLines holds line-aligned addresses the instruction flushed.
	FlushLines map[uint64]struct{}
}

// SetAccessKind tags entries of the cache-set trace.
type SetAccessKind uint8

// Cache-set trace entry kinds.
const (
	SetRead SetAccessKind = iota
	SetWrite
	SetFlush
)

// SetAccess is one entry of the chronological cache-set access trace the
// SCADET baseline consumes.
type SetAccess struct {
	Cycle uint64
	Set   int    // LLC set index
	Line  uint64 // line-aligned address
	Kind  SetAccessKind
	PC    uint64
}

// WindowSample is one fixed-width time window of HPC activity; the ML
// baselines build their feature vectors from sequences of these.
type WindowSample struct {
	StartCycle uint64
	Counts     hpc.Counts
}

// EventKind tags entries of the chronological event log.
type EventKind uint8

// Event log entry kinds. They mirror the four trace hooks the modeling
// pipeline consumes — instruction retirement, memory-line touches,
// flush-line touches and HPC event firings. The cache-set trace is not
// part of the log: it exists for the SCADET baseline only and has its
// own chronological record (SetTrace).
const (
	EvRetire EventKind = iota
	EvMem
	EvFlush
	EvHPC
)

// Event is one entry of the chronological event log recorded when
// Config.RecordEvents is set. Replaying a prefix (or any cycle slice) of
// the log through a TraceBuilder reconstructs the Trace state the
// modeling pipeline would have seen at that point — the mechanism the
// sliding-window detector (internal/window) uses to model mid-trace.
//
// Ordering contract: Cycle is NONDECREASING in log order — the machine's
// virtual clock never runs backwards — but duplicates are possible.
// Overlapped latencies are integer-divided (fetch latency /4, transient
// load latency /2) and can contribute zero cycles, so several
// consecutive events may share one Cycle value. Consumers slicing the
// log by time must therefore use half-open cycle intervals
// [start, end) and must never assume strict monotonicity.
// TestEventLogOrdering pins this contract.
type Event struct {
	Kind  EventKind
	Cycle uint64
	PC    uint64
	Line  uint64    // line-aligned address (EvMem, EvFlush)
	HPC   hpc.Event // fired counter (EvHPC)
}

// Trace is the complete runtime record of the monitored process.
type Trace struct {
	Bank     *hpc.Bank
	ByAddr   map[uint64]*AddrRecord
	SetTrace []SetAccess
	Windows  []WindowSample

	// Events is the chronological event log, populated only when the
	// machine ran with Config.RecordEvents. See Event for the ordering
	// contract.
	Events []Event
	// EventsTruncated reports that the log hit Config.MaxEvents and
	// stopped recording; a truncated log must not be replayed as if it
	// were complete.
	EventsTruncated bool

	Retired     uint64 // architecturally retired instructions
	Transient   uint64 // speculatively executed (squashed) instructions
	Cycles      uint64 // total virtual cycles at the end of the run
	Halted      bool   // monitored process reached HLT
	WindowWidth uint64

	maxSetTrace  int
	curWindow    WindowSample
	recordEvents bool
	maxEvents    int
}

// newTrace builds an empty trace with the given sampling parameters.
func newTrace(windowWidth uint64, maxSetTrace int, recordEvents bool, maxEvents int) *Trace {
	if windowWidth == 0 {
		windowWidth = 2048
	}
	return &Trace{
		Bank:         hpc.NewBank(),
		ByAddr:       make(map[uint64]*AddrRecord),
		WindowWidth:  windowWidth,
		maxSetTrace:  maxSetTrace,
		recordEvents: recordEvents,
		maxEvents:    maxEvents,
	}
}

// event appends one entry to the chronological log, honouring the cap.
func (t *Trace) event(kind EventKind, cycle, pc, line uint64, e hpc.Event) {
	if !t.recordEvents || t.EventsTruncated {
		return
	}
	if t.maxEvents > 0 && len(t.Events) >= t.maxEvents {
		t.EventsTruncated = true
		return
	}
	t.Events = append(t.Events, Event{Kind: kind, Cycle: cycle, PC: pc, Line: line, HPC: e})
}

// addrSlot caches the trace state of one instruction address of the
// monitored process: its record and HPC counter vector, each created on
// the address's first event. The machine keeps one slot per instruction
// position and a TraceBuilder one per replayed address, so the hot path
// touches Trace.ByAddr and the Bank's map once per distinct address
// instead of once per event.
type addrSlot struct {
	pc  uint64
	rec *AddrRecord
	hpc *hpc.Counts
}

func (t *Trace) record(s *addrSlot, cycle uint64) *AddrRecord {
	if s.rec == nil {
		s.rec = &AddrRecord{
			FirstCycle: cycle,
			MemLines:   make(map[uint64]struct{}),
			FlushLines: make(map[uint64]struct{}),
		}
		t.ByAddr[s.pc] = s.rec
	}
	return s.rec
}

func (t *Trace) retire(s *addrSlot, cycle uint64) {
	t.record(s, cycle).ExecCount++
	t.Retired++
	t.event(EvRetire, cycle, s.pc, 0, 0)
}

func (t *Trace) memLine(s *addrSlot, lineAddr uint64, cycle uint64) {
	t.record(s, cycle).MemLines[lineAddr] = struct{}{}
	t.event(EvMem, cycle, s.pc, lineAddr, 0)
}

func (t *Trace) flushLine(s *addrSlot, lineAddr uint64, cycle uint64) {
	t.record(s, cycle).FlushLines[lineAddr] = struct{}{}
	t.event(EvFlush, cycle, s.pc, lineAddr, 0)
}

func (t *Trace) setAccess(cycle uint64, set int, line uint64, kind SetAccessKind, pc uint64) {
	if t.maxSetTrace > 0 && len(t.SetTrace) >= t.maxSetTrace {
		return
	}
	t.SetTrace = append(t.SetTrace, SetAccess{Cycle: cycle, Set: set, Line: line, Kind: kind, PC: pc})
}

// fire records an HPC event both in the bank and the current window.
func (t *Trace) fire(e hpc.Event, s *addrSlot, cycle uint64) {
	if s.hpc == nil {
		s.hpc = t.Bank.Counter(s.pc)
	}
	t.Bank.FireAt(e, s.hpc)
	t.curWindow.Counts[e]++
	t.event(EvHPC, cycle, s.pc, 0, e)
}

// tickWindows advances window sampling to the given cycle.
func (t *Trace) tickWindows(cycle uint64) {
	for cycle >= t.curWindow.StartCycle+t.WindowWidth {
		t.Windows = append(t.Windows, t.curWindow)
		t.curWindow = WindowSample{StartCycle: t.curWindow.StartCycle + t.WindowWidth}
	}
}

// finish flushes the trailing partial window.
func (t *Trace) finish(cycle uint64) {
	t.Cycles = cycle
	if t.curWindow.Counts.Total() > 0 {
		t.Windows = append(t.Windows, t.curWindow)
	}
}

// Addrs returns every recorded instruction address in ascending order.
func (t *Trace) Addrs() []uint64 {
	out := make([]uint64, 0, len(t.ByAddr))
	for a := range t.ByAddr {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TraceBuilder reconstructs a Trace by replaying entries of an event
// log through the same hooks the machine drives, so the rebuilt
// Bank/ByAddr state is bit-identical to what a live run restricted to
// those events would have produced. The sliding-window detector feeds
// it the events of one window to obtain a modellable per-window trace.
//
// The rebuilt trace covers exactly what the modeling pipeline
// (model.BuildFromTrace) consumes: the HPC bank, the per-address
// records and the cycle count. SetTrace, Windows and the
// Retired/Transient totals of the original run are NOT reconstructed —
// they feed the baselines, not CST-BBS modeling.
type TraceBuilder struct {
	t     *Trace
	slot  map[uint64]int // pc -> index in slots
	slots []addrSlot
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{t: newTrace(0, 0, false, 0), slot: make(map[uint64]int)}
}

// Apply replays one event. Events must be applied in log order (cycles
// nondecreasing); Apply does not re-sort.
func (b *TraceBuilder) Apply(ev Event) {
	i, ok := b.slot[ev.PC]
	if !ok {
		i = len(b.slots)
		b.slots = append(b.slots, addrSlot{pc: ev.PC})
		b.slot[ev.PC] = i
	}
	s := &b.slots[i]
	switch ev.Kind {
	case EvRetire:
		b.t.retire(s, ev.Cycle)
	case EvMem:
		b.t.memLine(s, ev.Line, ev.Cycle)
	case EvFlush:
		b.t.flushLine(s, ev.Line, ev.Cycle)
	case EvHPC:
		b.t.fire(ev.HPC, s, ev.Cycle)
	}
}

// Trace finalizes and returns the reconstructed trace. cycles becomes
// Trace.Cycles (use the end of the replayed interval). The builder must
// not be reused afterwards.
func (b *TraceBuilder) Trace(cycles uint64) *Trace {
	b.t.Cycles = cycles
	return b.t
}

// MemLinesOf returns the sorted accessed (and flushed) line addresses of
// the instruction at pc. Flushed lines are included because the paper's
// overlap analysis collects "accessed memory addresses (including
// flushed addresses)".
func (t *Trace) MemLinesOf(pc uint64) []uint64 {
	r := t.ByAddr[pc]
	if r == nil {
		return nil
	}
	out := make([]uint64, 0, len(r.MemLines)+len(r.FlushLines))
	for a := range r.MemLines {
		out = append(out, a)
	}
	for a := range r.FlushLines {
		if _, dup := r.MemLines[a]; !dup {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Package model implements SCAGuard's attack behavior modeling
// (Section III-A of the paper): it turns a binary program into a
// CST-BBS — a cache-state-transition enhanced basic block sequence.
//
// The pipeline is:
//
//  1. Recover the CFG (internal/cfg) and execute the program on the
//     simulated machine (internal/exec), collecting HPC events per
//     instruction address and the memory lines each instruction touched.
//  2. Identify potential attack-relevant BBs: blocks with a nonzero HPC
//     value (the sum of the 11 counted Table-I events mapped onto the
//     block's instruction addresses).
//  3. Refine using cache-set overlap: keep only blocks that touch a
//     cache set touched by at least one other block (during an attack,
//     some cache sets must be accessed multiple times by at least two
//     different blocks — flush vs reload, prime vs probe).
//  4. Connect the surviving blocks into an attack-relevant graph with
//     Algorithm 1 (see algorithm1.go).
//  5. Measure a cache state transition for every block of the graph in a
//     dedicated cache simulator (see cst.go) and flatten the graph into
//     a sequence ordered by first-execution time.
package model

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/hpc"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// Config tunes attack behavior modeling.
type Config struct {
	// Exec configures the data-collection run.
	Exec exec.Config
	// MeasureCache configures the dedicated cache simulator used for CST
	// measurement; zero value selects DefaultMeasureCache.
	MeasureCache cache.Config
	// MaxPathsPerPair bounds path enumeration between two relevant BBs.
	MaxPathsPerPair int
	// MaxPathLen bounds the length (in blocks) of enumerated paths.
	MaxPathLen int
	// MaxWeight is Algorithm 1's MAX constant for directly connected
	// relevant blocks.
	MaxWeight float64
	// Telemetry optionally records modeling counters and stage timings
	// (trace collection, attack-relevant BB extraction, CST simulation).
	// nil disables instrumentation at zero cost.
	Telemetry *telemetry.Collector
}

// DefaultMeasureCache is the cache simulator configuration used to
// measure CSTs: deliberately small (64 lines) so that a single basic
// block visibly moves the occupancy rates — a flush of one line, a
// reload of a dozen and a prime sweep of a hundred land at clearly
// different deltas, which is what makes the CSP distance discriminative.
func DefaultMeasureCache() cache.Config {
	return cache.Config{Name: "cst-measure", Sets: 16, Ways: 4, LineSize: 64, Policy: cache.LRU}
}

// DefaultConfig returns the modeling configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		Exec:            exec.DefaultConfig(),
		MeasureCache:    DefaultMeasureCache(),
		MaxPathsPerPair: 64,
		MaxPathLen:      64,
		MaxWeight:       1e9,
	}
}

func (c Config) withDefaults() Config {
	if c.MeasureCache.Sets == 0 {
		c.MeasureCache = DefaultMeasureCache()
	}
	if c.MaxPathsPerPair == 0 {
		c.MaxPathsPerPair = 64
	}
	if c.MaxPathLen == 0 {
		c.MaxPathLen = 64
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 1e9
	}
	return c
}

// CST is one cache state transition S --b--> S' (Definition 4) plus the
// block information the similarity metric needs.
type CST struct {
	Leader uint64
	Before cache.State
	After  cache.State
	// NormInsns is the normalized instruction sequence of the block
	// (IS of Section III-B1).
	NormInsns []string
	// FirstCycle is when the block first executed; it orders the BBS.
	FirstCycle uint64
	// HPCValue is the block's summed HPC value.
	HPCValue uint64
}

// Delta returns P = (|AO-AO'| + |IO-IO'|)/2, the magnitude of cache
// change the CSP distance compares.
func (c CST) Delta() float64 {
	dAO := c.After.AO - c.Before.AO
	if dAO < 0 {
		dAO = -dAO
	}
	dIO := c.After.IO - c.Before.IO
	if dIO < 0 {
		dIO = -dIO
	}
	return (dAO + dIO) / 2
}

// CSTBBS is the attack behavior model: a sequence of cache state
// transitions in first-execution order (Definition 5).
type CSTBBS struct {
	Name string
	Seq  []CST
	// TimerReads counts the timestamp reads (RDTSCP) observed while
	// collecting the model. Every cache side-channel attack measures
	// time — it is the channel — so a target with zero timer reads
	// cannot be a CSCA; the detector uses this as a prerequisite.
	TimerReads uint64
}

// Len returns the sequence length.
func (s *CSTBBS) Len() int { return len(s.Seq) }

// Model is the full result of attack behavior modeling; it keeps the
// intermediate artefacts the evaluation (Table IV) reports on.
type Model struct {
	Name string
	CFG  *cfg.CFG
	// PotentialBBs is the step-1 result: leaders with nonzero HPC value.
	PotentialBBs []uint64
	// RelevantBBs is the step-2 result after cache-set overlap filtering.
	RelevantBBs []uint64
	// AttackGraph is the Algorithm-1 result; its nodes are the identified
	// attack-relevant blocks (#IAB in Table IV).
	AttackGraph *graph.Digraph
	// BBS is the flattened CST-BBS used for similarity comparison.
	BBS *CSTBBS
	// HPCByBB maps block leaders to HPC values (diagnostics/ablation).
	HPCByBB map[uint64]uint64
	// MemLinesByBB maps block leaders to the accessed line addresses.
	MemLinesByBB map[uint64][]uint64
	// TraceCycles records how long the collection run took (virtual).
	TraceCycles uint64
}

// IdentifiedBBs returns the attack-relevant blocks found by the pipeline
// (the nodes of the attack-relevant graph), sorted.
func (m *Model) IdentifiedBBs() []uint64 {
	out := m.AttackGraph.Nodes()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Build models the attack behavior of prog. victim may be nil; when
// present it runs interleaved with prog on the shared cache (the setting
// Flush+Reload-style PoCs require).
func Build(prog *isa.Program, victim *isa.Program, config Config) (*Model, error) {
	return BuildCtx(context.Background(), prog, victim, config)
}

// BuildCtx is Build with cooperative cancellation: the context is
// checked at stage boundaries (before CFG recovery, before and after
// the simulation run, before CST measurement), so a cancelled or
// expired context aborts modeling between stages with the context's
// error. A background context takes the same path at no measurable
// cost. The interior stages themselves run to completion — cancellation
// is cooperative, not preemptive.
func BuildCtx(ctx context.Context, prog *isa.Program, victim *isa.Program, config Config) (*Model, error) {
	config = config.withDefaults()
	if prog == nil {
		return nil, fmt.Errorf("model: program is nil")
	}
	if err := faultinject.Fire(faultinject.ModelBuild, prog.Name); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tel := config.Telemetry
	buildStart := tel.Now()
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("model: cfg: %w", err)
	}
	machine, err := exec.NewMachine(config.Exec, prog, victim)
	if err != nil {
		return nil, fmt.Errorf("model: exec: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	traceStart := tel.Now()
	trace := machine.Run()
	tel.ObserveSince(telemetry.StageTrace, traceStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := buildFromTraceCtx(ctx, prog, c, trace, machine.Hierarchy().LLC().Config(), config)
	if err == nil {
		tel.Inc(telemetry.ModelBuilds)
		tel.ObserveSince(telemetry.StageModel, buildStart)
	}
	return m, err
}

// BuildFromTrace models attack behavior from an existing execution
// trace (collected with the LLC configuration llc), recovering the CFG
// from the program. It allows callers that already ran the program —
// e.g. the experiment harness, which shares one trace between SCAGuard
// and the baselines — to skip the second simulation.
func BuildFromTrace(prog *isa.Program, trace *exec.Trace, llc cache.Config, config Config) (*Model, error) {
	config = config.withDefaults()
	if prog == nil {
		return nil, fmt.Errorf("model: program is nil")
	}
	if trace == nil {
		return nil, fmt.Errorf("model: trace is nil")
	}
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("model: cfg: %w", err)
	}
	return buildFromTraceCtx(context.Background(), prog, c, trace, llc, config)
}

// buildFromTraceCtx is the deterministic part of the pipeline, split
// out for targeted testing. The context is observed once, before CST
// measurement (the only interior boundary left after the trace exists).
func buildFromTraceCtx(ctx context.Context, prog *isa.Program, c *cfg.CFG, trace *exec.Trace, llc cache.Config, config Config) (*Model, error) {
	return buildFromTraceWith(ctx, prog, c, trace, llc, config, normalizeBlock)
}

// normalizeBlock is the default (unmemoized) block normalizer.
func normalizeBlock(bb *cfg.BasicBlock) []string {
	return isa.NormalizeSeq(bb.Insns)
}

// buildFromTraceWith additionally takes the block normalizer, letting
// repeated-build callers (WindowBuilder) memoize normalization — it
// depends only on the static block, never on the trace. The returned
// slice is only read and appended onto a fresh slice, so sharing one
// across builds is safe.
func buildFromTraceWith(ctx context.Context, prog *isa.Program, c *cfg.CFG, trace *exec.Trace, llc cache.Config, config Config, normOf func(*cfg.BasicBlock) []string) (*Model, error) {
	if err := llc.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	tel := config.Telemetry
	extractStart := tel.Now()
	m := &Model{
		Name:         prog.Name,
		CFG:          c,
		HPCByBB:      make(map[uint64]uint64),
		MemLinesByBB: make(map[uint64][]uint64),
		TraceCycles:  trace.Cycles,
	}

	// Step 1: HPC values folded onto blocks.
	for addr, v := range trace.Bank.HPCValueByAddr() {
		if leader, ok := c.LeaderOf(addr); ok {
			m.HPCByBB[leader] += v
		}
	}
	for leader := range m.HPCByBB {
		m.PotentialBBs = append(m.PotentialBBs, leader)
	}
	sort.Slice(m.PotentialBBs, func(i, j int) bool { return m.PotentialBBs[i] < m.PotentialBBs[j] })

	// Collect accessed lines per potential block. MemLinesByBB holds the
	// union of loaded/stored and flushed lines (the paper's overlap
	// analysis includes flushed addresses); loadsByBB keeps only the
	// loads/stores so CST measurement can replay flushes as flushes.
	firstCycle := make(map[uint64]uint64)
	loadsByBB := make(map[uint64][]uint64)
	for _, leader := range m.PotentialBBs {
		bb := c.Blocks[leader]
		loadSet := make(map[uint64]struct{})
		unionSet := make(map[uint64]struct{})
		fc := uint64(1<<63 - 1)
		for _, in := range bb.Insns {
			if r := trace.ByAddr[in.Addr]; r != nil {
				for l := range r.MemLines {
					loadSet[l] = struct{}{}
					unionSet[l] = struct{}{}
				}
				for l := range r.FlushLines {
					unionSet[l] = struct{}{}
				}
				if r.ExecCount > 0 && r.FirstCycle < fc {
					fc = r.FirstCycle
				}
			}
		}
		m.MemLinesByBB[leader] = sortedLines(unionSet)
		loadsByBB[leader] = sortedLines(loadSet)
		firstCycle[leader] = fc
	}

	// Step 2: cache-set overlap filtering, under the set-index function
	// of the real LLC.
	setUsers := make(map[int]map[uint64]struct{})
	for leader, lines := range m.MemLinesByBB {
		for _, l := range lines {
			si := llc.SetIndex(l)
			if setUsers[si] == nil {
				setUsers[si] = make(map[uint64]struct{})
			}
			setUsers[si][leader] = struct{}{}
		}
	}
	multiSets := make(map[int]bool)
	for si, users := range setUsers {
		if len(users) >= 2 {
			multiSets[si] = true
		}
	}
	for _, leader := range m.PotentialBBs {
		keep := false
		for _, l := range m.MemLinesByBB[leader] {
			if multiSets[llc.SetIndex(l)] {
				keep = true
				break
			}
		}
		if keep {
			m.RelevantBBs = append(m.RelevantBBs, leader)
		}
	}

	// Step 3: Algorithm 1 — attack-relevant graph construction.
	m.AttackGraph = BuildAttackGraph(c.G, c.EntryLeader(), m.RelevantBBs, m.HPCByBB, config)
	tel.ObserveSince(telemetry.StageBBExtract, extractStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.Fire(faultinject.ModelCST, prog.Name); err != nil {
		return nil, fmt.Errorf("model: cst measurement: %w", err)
	}
	cstStart := tel.Now()
	measure := cache.MustNew(config.MeasureCache)

	// Step 4: CST measurement for every node of the attack-relevant
	// graph, then flattening by first execution time. Blocks pulled in by
	// path restoration may never have executed (or executed without
	// memory traffic); they get identity CSTs and sort by leader address
	// after the executed blocks.
	// Canonicalize the attack-relevant graph into chains: a run of blocks
	// where each has exactly one successor and the next exactly one
	// predecessor behaves as one straight-line unit. This fuses the
	// fragments that junk-code obfuscation splits a block into, so an
	// obfuscated variant flattens to nearly the same CST-BBS as its
	// original.
	execCount := func(leader uint64) uint64 {
		if r := trace.ByAddr[leader]; r != nil {
			return r.ExecCount
		}
		return 0
	}
	chains := straightChains(m.AttackGraph, execCount)
	type entry struct {
		cst      CST
		executed bool
	}
	entries := make([]entry, 0, len(chains))
	for _, chain := range chains {
		var loads, flushes []uint64
		var norm []string
		var hpcSum uint64
		fc := uint64(1<<63 - 1)
		executed := false
		for _, leader := range chain {
			bb := c.Blocks[leader]
			loads = append(loads, loadsByBB[leader]...)
			flushes = append(flushes, blockFlushLines(bb, trace)...)
			norm = append(norm, normOf(bb)...)
			hpcSum += m.HPCByBB[leader]
			if f, ok := firstCycle[leader]; ok && f != uint64(1<<63-1) {
				if f < fc {
					fc = f
				}
				executed = true
			} else if f2, ok2 := blockFirstCycle(bb, trace); ok2 {
				if f2 < fc {
					fc = f2
				}
				executed = true
			}
		}
		cst := MeasureCST(measure, dedupSorted(loads), dedupSorted(flushes))
		cst.Leader = chain[0]
		cst.NormInsns = norm
		cst.HPCValue = hpcSum
		if cst.HPCValue == 0 && cst.Delta() == 0 {
			// Connector chains restored by Algorithm 1 for control-flow
			// completeness carry no cache behavior; they stay in the
			// attack-relevant graph but would only add syntactic noise
			// to the similarity comparison, so the flattened CST-BBS
			// keeps the cache-active chains.
			continue
		}
		cst.FirstCycle = fc
		entries = append(entries, entry{cst: cst, executed: executed})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.executed != b.executed {
			return a.executed
		}
		if a.executed && a.cst.FirstCycle != b.cst.FirstCycle {
			return a.cst.FirstCycle < b.cst.FirstCycle
		}
		return a.cst.Leader < b.cst.Leader
	})
	bbs := &CSTBBS{Name: prog.Name, TimerReads: trace.Bank.Global()[hpc.Timestamp]}
	for _, e := range entries {
		bbs.Seq = append(bbs.Seq, e.cst)
	}
	m.BBS = bbs
	tel.ObserveSince(telemetry.StageCST, cstStart)
	return m, nil
}

// straightChains partitions the attack-relevant graph's nodes into
// maximal straight-line chains: consecutive nodes linked by an edge
// where the predecessor has out-degree one, the successor in-degree
// one, and both executed equally often (two fragments of one split
// block always share their execution count; blocks of different loop
// phases do not). Chains are returned in ascending order of their head
// leader; node order within a chain follows the control flow.
func straightChains(g *graph.Digraph, execCount func(uint64) uint64) [][]uint64 {
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	mergeable := func(a, b uint64) bool {
		return len(g.Succs(a)) == 1 && len(g.Preds(b)) == 1 &&
			execCount(a) > 0 && execCount(a) == execCount(b)
	}
	isHead := func(n uint64) bool {
		preds := g.Preds(n)
		if len(preds) != 1 {
			return true
		}
		return !mergeable(preds[0], n)
	}
	var chains [][]uint64
	visited := make(map[uint64]bool, len(nodes))
	for _, n := range nodes {
		if visited[n] || !isHead(n) {
			continue
		}
		chain := []uint64{n}
		visited[n] = true
		cur := n
		for {
			succs := g.Succs(cur)
			if len(succs) != 1 {
				break
			}
			next := succs[0]
			if visited[next] || !mergeable(cur, next) {
				break
			}
			chain = append(chain, next)
			visited[next] = true
			cur = next
		}
		chains = append(chains, chain)
	}
	// Nodes inside cycles (no head) — defensive; the restored graph is
	// built from acyclic paths, but cover it anyway.
	for _, n := range nodes {
		if !visited[n] {
			visited[n] = true
			chains = append(chains, []uint64{n})
		}
	}
	return chains
}

// dedupSorted sorts and deduplicates a line slice in place.
func dedupSorted(lines []uint64) []uint64 {
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	out := lines[:0]
	var last uint64
	for i, l := range lines {
		if i == 0 || l != last {
			out = append(out, l)
			last = l
		}
	}
	return out
}

// sortedLines converts a line set to a sorted slice.
func sortedLines(set map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blockFlushLines returns the lines flushed by the block's instructions.
func blockFlushLines(bb *cfg.BasicBlock, trace *exec.Trace) []uint64 {
	set := make(map[uint64]struct{})
	for _, in := range bb.Insns {
		if r := trace.ByAddr[in.Addr]; r != nil {
			for l := range r.FlushLines {
				set[l] = struct{}{}
			}
		}
	}
	out := make([]uint64, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blockFirstCycle returns the earliest retirement cycle of any
// instruction of the block.
func blockFirstCycle(bb *cfg.BasicBlock, trace *exec.Trace) (uint64, bool) {
	best := uint64(1<<63 - 1)
	found := false
	for _, in := range bb.Insns {
		if r := trace.ByAddr[in.Addr]; r != nil && r.ExecCount > 0 {
			if r.FirstCycle < best {
				best = r.FirstCycle
			}
			found = true
		}
	}
	return best, found
}

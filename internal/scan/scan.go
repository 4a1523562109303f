// Package scan implements SCAGuard's repository scan engine: the hot
// path of the deployment layer (paper Section III-B3), where a target's
// CST-BBS is compared against every attack behavior model in the
// repository. The paper's time-cost table shows this similarity
// comparison dominating end-to-end detection latency, so the engine
// attacks it on three axes (design rationale and measured numbers in
// docs/PERFORMANCE.md):
//
//   - Parallelism. Per-entry scoring fans out across a worker pool
//     (Config.Workers, default GOMAXPROCS), for one target (Scan) or
//     many (ScanBatch). Results are collected positionally, so the
//     output is deterministic regardless of scheduling.
//   - Memoization. The normalized-instruction Levenshtein term is the
//     dominant cost inside every DTW cell, and the same basic blocks
//     recur across repository entries, scans and targets (crypto loops,
//     probe loops). A DistCache shared safely across workers computes
//     each distinct block pair once.
//   - Early abandoning (Config.Prune). A cheap O(n+m)-style lower bound
//     (similarity.LowerBound) skips entries that provably cannot beat
//     the best score found so far, and the banded DTW itself abandons
//     row-wise (dtw.DistanceAbandon) once every cell exceeds the bound
//     implied by the running best. Pruned entries report an upper-bound
//     score and Pruned=true; the best match is always computed exactly,
//     so classification decisions and explanations are unaffected.
//
// In exact mode (Prune=false, the default) the engine is bit-identical
// to the serial reference path (ScanSerial): same comparisons, same
// float operations, same scores. The differential tests in this package
// and in internal/detect enforce that equivalence on real corpora.
//
// An Engine is immutable after New and safe for concurrent use; it
// snapshots the model slice it is given, so the caller may keep
// appending to a repository while older engines scan.
package scan

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dtw"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// Config tunes a scan engine.
type Config struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Prune enables early abandoning. The best match (and therefore the
	// classification) stays exact; non-best entries may be skipped once
	// they provably cannot win, reporting an upper-bound score with
	// Pruned=true. Which entries get pruned depends on scheduling, so
	// full match lists are only reproducible with Prune=false.
	Prune bool
	// Cascade layers the full lower-bound cascade over Prune: entries
	// are ordered by the O(1) aggregate bound (similarity.LowerBoundKim)
	// and escalated lazily through the O(n+m) envelope bound
	// (similarity.LowerBoundKeogh) and the exact per-row bound
	// (similarity.LowerBound) only while they survive — most entries of
	// a large repository are pruned before any per-row work. Every tier
	// is prune-only and conservative, so the invariants of Prune hold
	// unchanged: best match, prediction and explanation stay exact.
	// Ignored when Prune is false.
	Cascade bool
	// Index enables the medoid-prototype repository index
	// (internal/index): entries are clustered at engine build time via
	// the pairwise-distance MST, each scan scores the cluster
	// prototypes first and visits clusters in ascending prototype-
	// distance order, and entries of clusters that provably (per-entry
	// cascade certificates) cannot beat the running cutoff are skipped
	// without per-row DTW work — sub-linear scans on large
	// repositories. The best match, prediction and explanation stay
	// exact, exactly as under Prune; which entries report Pruned=true
	// remains schedule-dependent. Indexed scans always use the full
	// lower-bound certificate ladder, so Cascade is implied and its
	// flag has no additional effect. Ignored when Prune is false; an
	// injected index-build fault degrades to the flat scan path. See
	// docs/INDEXING.md.
	Index bool
	// IndexClusters overrides the index's cluster count; <= 0 selects
	// the ~sqrt(N)/2 default (index.DefaultClusters).
	IndexClusters int
	// IndexMaxClusters, when > 0, enables the approximate recall-
	// trading mode: per target at most this many clusters (in
	// ascending prototype-distance order) are examined normally, and
	// the members of every later cluster are skipped on the triangle-
	// inequality estimate alone — which the normalized DTW distance
	// does not guarantee, so the true best match may be missed. Exact
	// mode (the default, 0) never trusts that estimate for a skip.
	IndexMaxClusters int
	// IndexFrom optionally seeds index construction from a previous
	// engine's index when the new model slice is an append-only
	// extension of the one that index covers (the caller must verify
	// the prefix matches): appended entries join their nearest medoid
	// (index.Extend) instead of paying the full O(n²) rebuild. Ignored
	// when extension is impossible.
	IndexFrom *index.Index
	// Sim is the similarity configuration shared by every comparison.
	Sim similarity.Options
	// Cache optionally shares a Levenshtein memo across engines (e.g.
	// across detectors built over one repository); nil creates a
	// private cache.
	Cache *DistCache
	// Telemetry optionally records scan counters (comparisons resolved
	// exactly vs pruned, lower-bound cutoff hits) and per-scan latency.
	// nil disables instrumentation at zero cost.
	Telemetry *telemetry.Collector
}

// Match is one repository comparison result.
type Match struct {
	// Index identifies the repository entry (position in the model
	// slice the engine was built from).
	Index int
	// Score is the similarity score 1/(D+1). For pruned entries it is
	// an upper bound on the true score, derived from the lower bound
	// that justified skipping the full comparison.
	Score float64
	// Pruned marks entries skipped by early abandoning.
	Pruned bool
}

// CloneMatches returns an independent copy of a match slice (nil in,
// nil out). The verdict result cache (internal/vcache) hands each
// caller its own copy of a memoized scan outcome, so no caller can
// mutate the cached slice out from under the others.
func CloneMatches(ms []Match) []Match {
	if ms == nil {
		return nil
	}
	return append([]Match(nil), ms...)
}

// Engine scans targets against a fixed set of repository models.
type Engine struct {
	cfg    Config
	sim    similarity.Options // cfg.Sim with defaults applied
	models []*model.CSTBBS
	profs  []*similarity.Profile
	ids    [][]uint32
	flats  []*model.FlatBBS // flattened symbol form; nil entries fall back to strings
	tab    *model.SymTab
	cache  *DistCache
	idx    *index.Index // nil unless Config.Index built one

	// scratches recycles worker scratches across scans. The win is not
	// the buffer reuse (those are small) but the worker-local pair memo
	// riding inside each scratch: it stays warm across scans of a long-
	// lived engine, so steady-state DTW cells never touch the shared
	// cache's lock.
	scratches sync.Pool
}

// getScratch hands out a pooled worker scratch (allocating one for a
// cold pool); putScratch returns it after clearing the per-batch
// bindings so pooled scratches never pin a finished batch's targets.
func (e *Engine) getScratch() *scratch {
	if s, ok := e.scratches.Get().(*scratch); ok {
		return s
	}
	return e.newScratch()
}

func (e *Engine) putScratch(s *scratch) {
	s.t, s.eb, s.eids, s.eprof, s.eflat = nil, nil, nil, nil, nil
	s.runK, s.runFn = 0, nil
	e.scratches.Put(s)
}

// New builds an engine over a snapshot of models. Construction interns
// every repository block into the cache, flattens every model into the
// contiguous symbol form the comparison kernel runs on, and precomputes
// the per-entry profiles the lower bounds need; it is cheap (linear in
// total blocks) next to a single repository scan.
func New(models []*model.CSTBBS, cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		sim:    cfg.Sim.WithDefaults(),
		models: append([]*model.CSTBBS(nil), models...),
		tab:    model.NewSymTab(),
		cache:  cfg.Cache,
	}
	if e.cache == nil {
		e.cache = NewDistCache()
	}
	e.profs = make([]*similarity.Profile, len(e.models))
	e.ids = make([][]uint32, len(e.models))
	e.flats = make([]*model.FlatBBS, len(e.models))
	for i, m := range e.models {
		e.profs[i] = similarity.NewProfile(m)
		e.ids[i] = e.internBlocks(m)
		e.flats[i], _ = model.FlattenBBS(m, e.tab)
	}
	if cfg.Index && cfg.Prune {
		e.idx = e.buildIndex()
		if e.idx != nil {
			cfg.Telemetry.RegisterGauges("index", e.idx.Gauges)
		}
	}
	return e
}

// Index returns the engine's repository index (nil when indexing is
// off, or when an injected build fault degraded the engine to flat
// scanning). Detectors hand it back via Config.IndexFrom to extend
// incrementally across repository version bumps.
func (e *Engine) Index() *index.Index { return e.idx }

// Len returns the number of repository models scanned per target.
func (e *Engine) Len() int { return len(e.models) }

// Cache returns the engine's Levenshtein memo (for sharing and stats).
func (e *Engine) Cache() *DistCache { return e.cache }

func (e *Engine) internBlocks(m *model.CSTBBS) []uint32 {
	ids := make([]uint32, m.Len())
	for i, c := range m.Seq {
		ids[i] = e.cache.intern(c.NormInsns)
	}
	return ids
}

// target carries the per-scan precomputation for one CST-BBS.
type target struct {
	bbs  *model.CSTBBS
	prof *similarity.Profile
	ids  []uint32
	flat *model.FlatBBS // nil when flattening failed (symbol table full)
}

func (e *Engine) newTarget(bbs *model.CSTBBS) *target {
	t := &target{bbs: bbs, prof: similarity.NewProfile(bbs), ids: e.internBlocks(bbs)}
	t.flat, _ = model.FlattenBBS(bbs, e.tab)
	return t
}

// Scan scores one target against every repository model. The result is
// ordered by entry index. In exact mode the scores are bit-identical to
// ScanSerial's.
func (e *Engine) Scan(bbs *model.CSTBBS) []Match {
	return e.ScanBatch([]*model.CSTBBS{bbs})[0]
}

// ScanCtx is Scan with cooperative cancellation: workers observe ctx
// between work items, so a cancelled or expired context returns
// promptly with its error and the partial matches are discarded. A
// panic while scoring is recovered and returned as a *panicsafe.
// PanicError instead of crashing the process.
func (e *Engine) ScanCtx(ctx context.Context, bbs *model.CSTBBS) ([]Match, error) {
	rs, err := e.ScanBatchCtx(ctx, []*model.CSTBBS{bbs})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ScanCutoffCtx is ScanCtx with an externally owned pruning cutoff:
// instead of a private per-target best, the scan consults and updates
// cut, so several engines scanning the same target concurrently — the
// shards of a partitioned repository — share one global best and prune
// against each other's matches (the cutoff broadcast, internal/shard).
// A cut that already carries a bound (from another shard, or from a
// remote coordinator's broadcast) tightens pruning from the first
// comparison. With Prune off the cutoff is ignored and the scan is
// bit-identical to ScanCtx.
func (e *Engine) ScanCutoffCtx(ctx context.Context, bbs *model.CSTBBS, cut *Cutoff) ([]Match, error) {
	rs, err := e.scanBatchCtx(ctx, []*model.CSTBBS{bbs}, []*Cutoff{cut})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ScanSerial is the reference implementation the engine is verified
// against: the pre-engine serial loop calling similarity.Score per
// entry, with no parallelism, memoization or pruning.
func (e *Engine) ScanSerial(bbs *model.CSTBBS) []Match {
	out := make([]Match, len(e.models))
	for i, m := range e.models {
		out[i] = Match{Index: i, Score: similarity.Score(bbs, m, e.sim)}
	}
	return out
}

// ScanBatch scores many targets in one worker-pool pass, sharing the
// pool across all (target, entry) pairs so small targets cannot strand
// workers. results[t][i] is target t against entry i. A panic while
// scoring re-raises in the calling goroutine (the loud contract of the
// non-context API); use ScanBatchCtx to receive it as an error instead.
func (e *Engine) ScanBatch(targets []*model.CSTBBS) [][]Match {
	rs, err := e.ScanBatchCtx(context.Background(), targets)
	if err != nil {
		// Background contexts never cancel, so the error is a recovered
		// worker panic (re-raised with its original value) or an
		// injected test fault; either way this API has no error path.
		_ = panicsafe.Repanic(err)
		panic(err)
	}
	return rs
}

// ScanBatchCtx is ScanBatch with cooperative cancellation and panic
// isolation. Workers observe ctx between (target, entry) work items —
// the items are microsecond-scale, so cancellation and deadline expiry
// return promptly — and every scoring runs under panic recovery: the
// first recovered panic (or injected worker fault) stops the batch and
// comes back as the error, counted under telemetry's panics_recovered.
// On a non-nil error the returned matches are incomplete and must be
// discarded.
func (e *Engine) ScanBatchCtx(ctx context.Context, targets []*model.CSTBBS) ([][]Match, error) {
	return e.scanBatchCtx(ctx, targets, nil)
}

// scanBatchCtx is the scan core. cuts, when non-nil, supplies the
// per-target pruning cutoffs (ScanCutoffCtx's shared cells); nil gives
// every target a private one.
func (e *Engine) scanBatchCtx(ctx context.Context, targets []*model.CSTBBS, cuts []*Cutoff) ([][]Match, error) {
	tel := e.cfg.Telemetry
	scanStart := tel.Now()
	defer tel.ObserveSince(telemetry.StageScan, scanStart)
	tel.Add(telemetry.ScanTargets, uint64(len(targets)))
	nE := len(e.models)
	indexed := e.indexed()
	results := make([][]Match, len(targets))
	ts := make([]*target, len(targets))
	orders := make([][]int, len(targets))
	bounds := make([][]float64, len(targets))
	kims := make([][]float64, len(targets))
	if cuts == nil {
		cuts = make([]*Cutoff, len(targets))
	}
	for ti, bbs := range targets {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		results[ti] = make([]Match, nE)
		ts[ti] = e.newTarget(bbs)
		if cuts[ti] == nil {
			cuts[ti] = NewCutoff()
		}
		if e.cfg.Prune && !indexed {
			// Cheap lower bounds, and a most-promising-first order so
			// the shared best tightens as early as possible. Without the
			// cascade the ordering bound is the exact per-row bound
			// (O((n+m)·w) per entry); with it, the O(1) Kim tier plus the
			// O(n+m) Keogh envelope tier — a ~w-times cheaper pass whose
			// ordering is nearly as sharp, leaving the per-row tier to
			// run lazily in scoreOne for the few entries within striking
			// distance of the cutoff.
			lbs := make([]float64, nE)
			if e.cfg.Cascade {
				kim := make([]float64, nE)
				var keo similarity.KeoghScratch
				for ei := range e.models {
					kim[ei] = similarity.LowerBoundKim(ts[ti].prof, e.profs[ei], e.sim)
					lbs[ei] = kim[ei]
					if b := similarity.LowerBoundKeogh(ts[ti].prof, e.profs[ei], e.sim, &keo); b > lbs[ei] {
						lbs[ei] = b
					}
				}
				kims[ti] = kim
			} else {
				for ei := range e.models {
					lbs[ei] = similarity.LowerBound(ts[ti].prof, e.profs[ei], e.sim)
				}
			}
			order := make([]int, nE)
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
			bounds[ti], orders[ti] = lbs, order
		}
	}
	// In indexed mode one work item is a whole target: the cluster
	// descent is inherently sequential (the prototype pass must finish
	// before the gates mean anything), so parallelism is across
	// targets, not within one. See docs/INDEXING.md.
	total := len(targets) * nE
	if indexed {
		total = len(targets)
	}
	if total == 0 {
		return results, ctx.Err()
	}
	entryAt := func(ti, k int) int {
		if orders[ti] != nil {
			return orders[ti][k]
		}
		return k
	}
	run := func(k int, s *scratch) error {
		if err := faultinject.Fire(faultinject.ScanWorker, ""); err != nil {
			return err
		}
		if indexed {
			e.scanIndexed(ts[k], results[k], cuts[k], s)
			return nil
		}
		ti, ei := k/nE, entryAt(k/nE, k%nE)
		results[ti][ei] = e.scoreOne(ts[ti], ei, bounds[ti], kims[ti], cuts[ti], s)
		return nil
	}
	// Each worker owns one scratch (DTW rows, Levenshtein rows, Keogh
	// deques, the bound dist closure, the pair memo and the panicsafe
	// trampoline), drawn from the engine pool so the per-item loop below
	// allocates nothing once warm and the memo survives across batches.
	newWorkerScratch := func() *scratch {
		s := e.getScratch()
		s.runFn = func() error { return run(s.runK, s) }
		return s
	}
	// First failure (recovered panic or injected fault) stops the
	// batch: stop flags the claim loops, failOnce keeps the error.
	var (
		stop     atomic.Bool
		failOnce sync.Once
		failErr  error
	)
	runSafe := func(k int, s *scratch) {
		s.runK = k
		err := panicsafe.Do(s.runFn)
		if err == nil {
			return
		}
		if _, ok := panicsafe.AsPanic(err); ok {
			tel.Inc(telemetry.PanicsRecovered)
		}
		failOnce.Do(func() { failErr = err })
		stop.Store(true)
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		s := newWorkerScratch()
		defer e.putScratch(s)
		for k := 0; k < total; k++ {
			if stop.Load() {
				break
			}
			if err := ctx.Err(); err != nil {
				return results, err
			}
			runSafe(k, s)
		}
		return results, failErr
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newWorkerScratch()
			defer e.putScratch(s)
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				k := atomic.AddInt64(&next, 1)
				if k >= int64(total) {
					return
				}
				runSafe(int(k), s)
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return results, failErr
	}
	return results, ctx.Err()
}

// cascadeEscalateFrac gates the lazy tier-3 escalation: the exact
// per-row bound (similarity.LowerBound) runs only for entries whose
// tier-1/2 bound already reaches this fraction of the cutoff. A bound
// far below the cutoff is almost never bridged by the modest tightening
// tier 3 adds, so spending O((n+m)·w) on it costs more than the banded
// DTW rows it would save — early abandoning catches those entries a few
// rows in anyway. The gate is a pure performance heuristic: it decides
// whether an extra prune-only bound is consulted, never how an entry is
// scored, so verdicts are unaffected by its value.
const cascadeEscalateFrac = 0.75

// scoreOne scores a single (target, entry) pair, consulting and
// updating the target's shared best distance when pruning. With the
// cascade enabled, lbs carries the running maximum of the tier-1/tier-2
// bounds (computed at order-build time; kims the tier-1 bound alone,
// for attribution) and the tier-3 per-row bound escalates lazily behind
// cascadeEscalateFrac. Every tier is a true lower bound and the code
// keeps their running maximum, so each tier stays prune-only and the
// reported pruned score stays a true upper bound.
func (e *Engine) scoreOne(t *target, ei int, lbs, kims []float64, cut *Cutoff, s *scratch) Match {
	tel := e.cfg.Telemetry
	if !e.cfg.Prune {
		d, _ := e.compare(t, ei, math.Inf(1), s)
		tel.Inc(telemetry.ScanEntriesExact)
		return Match{Index: ei, Score: dtw.Similarity(d)}
	}
	cutoff := pruneCutoff(cut.Best())
	bound := lbs[ei]
	if bound > cutoff {
		switch {
		case !e.cfg.Cascade:
			tel.Inc(telemetry.ScanEntriesLowerBoundSkipped)
		case kims[ei] > cutoff:
			tel.Inc(telemetry.ScanEntriesKimSkipped)
		default:
			tel.Inc(telemetry.ScanEntriesKeoghSkipped)
		}
		return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
	}
	if e.cfg.Cascade && bound > cutoff*cascadeEscalateFrac {
		if b := similarity.LowerBound(t.prof, e.profs[ei], e.sim); b > bound {
			bound = b
		}
		if bound > cutoff {
			tel.Inc(telemetry.ScanEntriesLowerBoundSkipped)
			return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
		}
	}
	d, abandoned := e.compare(t, ei, cutoff, s)
	if abandoned {
		tel.Inc(telemetry.ScanEntriesAbandoned)
		return Match{Index: ei, Score: dtw.Similarity(d), Pruned: true}
	}
	cut.Update(d)
	tel.Inc(telemetry.ScanEntriesExact)
	return Match{Index: ei, Score: dtw.Similarity(d)}
}

// pruneCutoff converts the best distance seen so far into the cutoff an
// entry must provably exceed before it may be skipped. The margin keeps
// pruning conservative under floating-point rounding: an entry whose
// true distance ties the best is never pruned, so the exact winner (and
// deterministic index tie-breaking) is preserved.
func pruneCutoff(best float64) float64 {
	if math.IsInf(best, 1) {
		return best
	}
	return best + best*1e-9 + 1e-15
}

// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the detector in this process, closed loop with
// one caller per CPU, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go run . --workload batch-fresh --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload half untraced and half traced, with spans around
// every call the benchmark makes into a layer, then a serial probe of
// a fixed prefix of the workload's inputs, and reports the per-layer
// metrics. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// verdict is the part of a classification the correctness checks
// compare exactly.
type verdict struct {
	Predicted attacks.Family
	Best      string
	Score     float64
}

func verdictOf(r detect.Result) verdict {
	return verdict{Predicted: r.Predicted, Best: r.Best.Name, Score: r.Best.Score}
}

// outcome is what one operation reports back to the runner.
type outcome struct {
	v     verdict
	label attacks.Family
	id    uint64 // program identity, for workload.repeat_share
	// matches and pruned count the returned repository matches and
	// those marked Pruned, for scan.pruned_share.
	matches, pruned int
	err             error
}

// workload is one benchmark scenario. The runner calls setup several
// times (closing the previous instance before each), then asks for
// chunks of operations: chunk builds chunk c's inputs (benchmark work,
// never timed) and op runs operation i of the current chunk. Chunk -1
// is the warm-up chunk.
type workload interface {
	setup() error
	chunk(c int) (int, error)
	op(ctx context.Context, b *spanBuf, i int) outcome
	// serial runs operation i of the current chunk on the calling
	// goroutine through the decomposed pipeline, with spans around each
	// layer call when b is non-nil and exact counts accumulated into c
	// when c is non-nil. Its verdict is the reference the concurrent
	// callers' verdicts are checked against.
	serial(ctx context.Context, b *spanBuf, i int, c *counts) (verdict, error)
	// detector is the instance the last setup built; freshDetector
	// builds another over the same repository.
	detector() *detect.Detector
	freshDetector() (*detect.Detector, error)
	// release drops the current chunk's inputs.
	release()
	// close stops the instance the last setup built, if any.
	close()
}

// sizing holds a workload's fixed operation counts.
type sizing struct {
	accOps   int // accuracy is measured over the first accOps operations
	refOps   int // operations checked against a serial reference (serve-repeat checks every one itself)
	probeOps int // operations the traced run's probe decomposes
}

var sizes = map[string]sizing{
	"batch-fresh":  {accOps: 4000, refOps: 50, probeOps: 100},
	"serve-repeat": {accOps: 4000, refOps: 0, probeOps: 100},
	"watch-online": {accOps: 2000, refOps: 20, probeOps: 25},
}

// Set-up runs in two blocks, one before the warm-up and one after the
// measured phase, each at least minSetups times and for at least
// minSetupTime; setup_s is the median over both. The host's speed
// drifts over seconds, so set-ups at both ends of the run average that
// drift instead of sampling one moment of it.
const (
	minSetups    = 15
	minSetupTime = time.Second
)

func main() {
	workloadName := flag.String("workload", "", "batch-fresh, serve-repeat or watch-online")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root (for testdata)")
	spanDir := flag.String("span-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its spans")
	flag.Parse()

	res, err := run(*workloadName, *seed, *seconds, *trace == 1, *root, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, seed int64, root string) (workload, error) {
	switch name {
	case "batch-fresh":
		return newBatchFresh(seed)
	case "serve-repeat":
		return newServeRepeat(seed, root)
	case "watch-online":
		return newWatchOnline(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want batch-fresh, serve-repeat or watch-online)", name)
}

func run(name string, seed int64, seconds float64, traced bool, root, spanDir string) (result, error) {
	callers := runtime.NumCPU()
	fmt.Fprintf(os.Stderr, "env: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s callers=%d\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), callers)

	genStart := time.Now()
	w, err := newWorkload(name, seed, root)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	sz := sizes[name]
	fmt.Fprintf(os.Stderr, "inputs: generated in %.2fs (not part of setup_s)\n", time.Since(genStart).Seconds())

	setups, err := setupBlock(w)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "setup: first block median %.4fs over %d set-ups (min %.4f max %.4f)\n", median(setups), len(setups), quantile(setups, 0), quantile(setups, 1))

	r := &runner{w: w, callers: callers, sz: sz}
	warm, err := r.measure(nil, 0, 0, -1, true)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Fprintf(os.Stderr, "warm-up: sent %d succeeded %d failed %d\n", warm.ops, warm.ops-warm.failed, warm.failed)

	if !traced {
		pr, err := r.measure(nil, seconds, max(sz.accOps, sz.refOps), 0, false)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "measured: sent %d succeeded %d failed %d in %.2fs\n", pr.ops, pr.ops-pr.failed, pr.failed, pr.wall.Seconds())
		fmt.Fprintf(os.Stderr, "latency: p50 %.3fms p90 %.3fms p99 %.3fms over %d samples\n",
			quantile(pr.lat, 0.5), quantile(pr.lat, 0.9), quantile(pr.lat, 0.99), len(pr.lat))
		if sr, ok := w.(*serveRepeat); ok {
			sr.reportMix(pr.perID, pr.ops)
		}
		more, err := setupBlock(w)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "setup: second block median %.4fs over %d set-ups\n", median(more), len(more))
		setups = append(setups, more...)
		setupS := median(setups)
		fmt.Fprintf(os.Stderr, "setup: median %.4fs over %d set-ups\n", setupS, len(setups))
		m := map[string]metric{
			"targets_per_s":       {float64(pr.ops) / pr.wall.Seconds(), "1/s"},
			"p50_ms":              {quantile(pr.lat, 0.5), "ms"},
			"p90_ms":              {quantile(pr.lat, 0.9), "ms"},
			"accuracy":            {float64(pr.accHits) / float64(pr.accN), "fraction"},
			"success_rate":        {1 - float64(pr.failed)/float64(pr.ops), "fraction"},
			"alloc_kb_per_target": {float64(pr.allocBytes) / 1024 / float64(pr.ops), "KiB"},
			"heap_mb":             {pr.heapMiB, "MiB"},
			"setup_s":             {setupS, "s"},
		}
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d  error_rate: %d/%d = %g\n", pr.accHits, pr.accN, pr.failed, pr.ops, float64(pr.failed)/float64(pr.ops))
		return result{Correct: pr.failed == 0, Attempted: pr.ops, Failed: pr.failed, Metrics: m}, nil
	}
	return r.tracedRun(name, seed, seconds, spanDir)
}

// setupBlock sets the workload up at least minSetups times and for at
// least minSetupTime, closing the previous instance before each (its
// shutdown is not set-up work), and returns each set-up's seconds.
func setupBlock(w workload) ([]float64, error) {
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < minSetupTime; {
		w.close()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// runner drives a workload's operations closed loop.
type runner struct {
	w       workload
	callers int
	sz      sizing
}

// phase is the outcome of one measured phase.
type phase struct {
	ops, failed     int
	wall            time.Duration
	lat             []float64 // ms, one per operation
	accHits, accN   int
	allocBytes      uint64
	gcCycles        uint64
	repeats         int
	perID           map[uint64]int // operations per program identity
	matches, pruned int
	nextChunk       int
	// heapMiB is the live heap once the first accOps operations are
	// done: a fixed amount of work, so caches that grow with it are
	// compared at the same size on every run.
	heapMiB float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// readRuntime returns cumulative heap-allocated bytes and GC cycles.
func readRuntime() (alloc, gcs uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// measure runs chunks from chunk0 on, callers at a time, until at
// least seconds of measured wall time and minOps operations are done;
// with once it runs exactly one chunk. Chunk generation between chunks
// is not timed. Operations of the first refOps of the phase are then
// checked against a serial reference.
func (r *runner) measure(tr *tracer, seconds float64, minOps, chunk0 int, once bool) (phase, error) {
	ctx := context.Background()
	pr := phase{perID: map[uint64]int{}}
	dur := time.Duration(seconds * float64(time.Second))
	lats := make([][]float64, r.callers)
	var refs []verdict
	for c := chunk0; ; c++ {
		n, err := r.w.chunk(c)
		if err != nil {
			return pr, fmt.Errorf("chunk %d: %w", c, err)
		}
		outs := make([]outcome, n)
		var next atomic.Int64
		base, wallSoFar := pr.ops, pr.wall
		alloc0, gc0 := readRuntime()
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < r.callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				b := tr.buf(k)
				for {
					if !once && wallSoFar+time.Since(start) >= dur && base+int(next.Load()) >= minOps {
						return
					}
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					if b != nil {
						b.req = int64(base + i)
					}
					t0 := time.Now()
					outs[i] = r.w.op(ctx, b, i)
					lats[k] = append(lats[k], float64(time.Since(t0).Nanoseconds())/1e6)
				}
			}(k)
		}
		wg.Wait()
		pr.wall += time.Since(start)
		alloc1, gc1 := readRuntime()
		pr.allocBytes += alloc1 - alloc0
		pr.gcCycles += gc1 - gc0
		done := min(int(next.Load()), n)
		for i, o := range outs[:done] {
			g := base + i
			if o.err != nil {
				pr.failed++
				if pr.failed <= 5 {
					fmt.Fprintf(os.Stderr, "op %d failed: %v\n", g, o.err)
				}
			}
			if pr.perID[o.id] > 0 {
				pr.repeats++
			}
			pr.perID[o.id]++
			if g < r.sz.accOps {
				pr.accN++
				if o.err == nil && o.v.Predicted == o.label {
					pr.accHits++
				}
			}
			if g < r.sz.refOps && c == chunk0 {
				refs = append(refs, o.v)
			}
			pr.matches += o.matches
			pr.pruned += o.pruned
		}
		pr.ops += done
		if base < r.sz.accOps && pr.ops >= r.sz.accOps {
			pr.heapMiB = liveHeapMiB(r.w)
		}
		if once || (pr.wall >= dur && pr.ops >= minOps) {
			pr.nextChunk = c + 1
			break
		}
	}
	for _, l := range lats {
		pr.lat = append(pr.lat, l...)
	}

	if len(refs) > 0 {
		bad, err := r.checkReferences(ctx, chunk0, refs)
		if err != nil {
			return pr, err
		}
		pr.failed += bad
	}
	return pr, nil
}

// checkReferences regenerates chunk0 and compares the verdicts the
// concurrent callers got for its first operations with a serial
// classification of the same targets through the decomposed pipeline.
func (r *runner) checkReferences(ctx context.Context, chunk0 int, got []verdict) (int, error) {
	if _, err := r.w.chunk(chunk0); err != nil {
		return 0, err
	}
	bad := 0
	for i, v := range got {
		ref, err := r.w.serial(ctx, nil, i, nil)
		if err != nil {
			return 0, fmt.Errorf("reference %d: %w", i, err)
		}
		if ref != v {
			bad++
			fmt.Fprintf(os.Stderr, "op %d: verdict %+v differs from serial reference %+v\n", i, v, ref)
		}
	}
	return bad, nil
}

// liveHeapMiB releases the workload's current chunk, forces a GC and
// returns the live heap. It runs between chunks, outside measured time.
func liveHeapMiB(w workload) float64 {
	w.release()
	// The second cycle also empties the sync.Pool victim caches, whose
	// contents depend on scheduling.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// counts are the exact, seed-determined figures the probe collects.
type counts struct {
	targets                 int
	retired, cycles, events int64
	execAllocBytes          uint64
	bbsLen, models          int64
	gated, gateable         int
	windows, scanned        int
	detectCycles            []float64
}

// tracedRun measures the workload half untraced and half traced, then
// probes a fixed prefix of its inputs, and reports per-layer metrics.
func (r *runner) tracedRun(name string, seed int64, seconds float64, spanDir string) (result, error) {
	ctx := context.Background()
	// The collector stays attached through both halves, so the two
	// differ by the spans alone and their throughput ratio is the
	// tracing overhead.
	det := r.w.detector()
	tel := telemetry.NewCollector()
	det.Telemetry = tel
	// A new collector rebuilds the scan engine; pay that before timing.
	if _, err := r.measure(nil, 0, 0, -1, true); err != nil {
		return result{}, err
	}
	untraced, err := r.measure(nil, seconds/2, r.sz.refOps, 0, false)
	if err != nil {
		return result{}, err
	}
	tel0 := tel.Snapshot()
	tr := newTracer(r.callers)
	traced, err := r.measure(tr, seconds/2, 0, untraced.nextChunk, false)
	if err != nil {
		return result{}, err
	}
	tel1 := tel.Snapshot()
	det.Telemetry = nil

	engineMS, err := engineBuildMS(ctx, r.w)
	if err != nil {
		return result{}, err
	}

	if _, err := r.w.chunk(0); err != nil {
		return result{}, err
	}
	ptr := newTracer(1)
	pb := ptr.buf(0)
	var c counts
	probeFailed := 0
	for i := 0; i < r.sz.probeOps; i++ {
		pb.req = int64(i)
		root := pb.begin("probe")
		_, err := r.w.serial(ctx, pb, i, &c)
		pb.end(root, 0)
		if errors.Is(err, errMismatch) {
			probeFailed++
			fmt.Fprintf(os.Stderr, "probe %d: %v\n", i, err)
		} else if err != nil {
			return result{}, fmt.Errorf("probe %d: %w", i, err)
		}
	}

	ts, ps := tr.spans(), ptr.spans()
	tstat, pstat := aggregate(ts), aggregate(ps)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, map[string][]span{"traced": ts, "probe": ps}); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %d traced + %d probe written to %s\n", len(ts), len(ps), path)
	printSelfTimes(os.Stderr, "traced", tstat)
	printSelfTimes(os.Stderr, "probe", pstat)

	pick := func(n string) layerStat {
		if st := tstat[n]; st.Count > 0 {
			return st
		}
		return pstat[n]
	}
	classify := pick("detect.classify_bbs").meanUS()
	if pick("detect.classify_bbs").Count == 0 && traced.ops > 0 {
		// window.Replay calls the detector internally: read the scan
		// stage the program itself records, per operation.
		scan := tel1.Stages["scan"].Total - tel0.Stages["scan"].Total
		classify = float64(scan.Nanoseconds()) / 1e3 / float64(traced.ops)
	}
	// Both from the probe, the only place cfg.Build runs on its own.
	extract := 0.0
	if bft := pstat["model.build_from_trace"]; bft.Count > 0 {
		extract = bft.meanUS() - pstat["cfg.build"].meanUS()
	}
	run := pick("exec.run")
	minstr := 0.0
	if run.Total > 0 {
		minstr = float64(run.N) / float64(run.Total) * 1e3
	}
	hits := tel1.Counters["vcache_hits"] - tel0.Counters["vcache_hits"]
	misses := tel1.Counters["vcache_misses"] - tel0.Counters["vcache_misses"]
	handler, httpSt := tstat["serve.handler"], tstat["serve.http"]
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	m := map[string]metric{
		"isa.parse_us":                 {pick("isa.parse").meanUS(), "us"},
		"cfg.build_us":                 {pick("cfg.build").meanUS(), "us"},
		"exec.setup_us":                {pick("exec.setup").meanUS(), "us"},
		"exec.run_us":                  {run.meanUS(), "us"},
		"exec.minstr_per_s":            {minstr, "Minstr/s"},
		"exec.alloc_kb":                {per(float64(c.execAllocBytes)/1024, c.targets), "KiB"},
		"exec.retired":                 {per(float64(c.retired), c.targets), "count"},
		"exec.cycles":                  {per(float64(c.cycles), c.targets), "count"},
		"exec.events":                  {per(float64(c.events), c.targets), "count"},
		"model.extract_us":             {extract, "us"},
		"model.bbs_len":                {per(float64(c.bbsLen), int(c.models)), "count"},
		"detect.gated_share":           {per(float64(c.gated), c.gateable), "fraction"},
		"detect.classify_bbs_us":       {classify, "us"},
		"scan.pruned_share":            {per(float64(traced.pruned), traced.matches), "fraction"},
		"scan.engine_build_ms":         {engineMS, "ms"},
		"vcache.hit_ratio":             {per(float64(hits), int(hits+misses)), "fraction"},
		"serve.handler_ms":             {handler.meanUS() / 1e3, "ms"},
		"serve.http_ms":                {per(float64(httpSt.Total-handler.Total)/1e6, httpSt.Count), "ms"},
		"serve.resp_bytes":             {per(float64(httpSt.N), httpSt.Count), "bytes"},
		"window.windows":               {per(float64(c.windows), c.targets), "count"},
		"window.scanned":               {per(float64(c.scanned), c.targets), "count"},
		"window.detect_cycles_p50":     {quantile(c.detectCycles, 0.5), "cycles"},
		"window.replay_ms":             {pick("window.replay").meanUS() / 1e3, "ms"},
		"runtime.gc_per_1k":            {per(float64(untraced.gcCycles)*1000, untraced.ops), "count"},
		"workload.repeat_share":        {per(float64(untraced.repeats), untraced.ops), "fraction"},
		"trace.untraced_targets_per_s": {float64(untraced.ops) / untraced.wall.Seconds(), "1/s"},
		"trace.traced_targets_per_s":   {float64(traced.ops) / traced.wall.Seconds(), "1/s"},
	}
	over := m["trace.untraced_targets_per_s"].Value/m["trace.traced_targets_per_s"].Value - 1
	fmt.Fprintf(os.Stderr, "tracing overhead: untraced %.1f/s vs traced %.1f/s (%+.1f%%)\n",
		m["trace.untraced_targets_per_s"].Value, m["trace.traced_targets_per_s"].Value, 100*over)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	attempted := untraced.ops + traced.ops + r.sz.probeOps
	failed := untraced.failed + traced.failed + probeFailed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// engineBuildMS is the first classification on a freshly built
// detector minus a warm repeat of it: the scan-engine build (and the
// cold distance cache). It classifies a prebuilt model, so simulation
// noise stays out of the difference.
func engineBuildMS(ctx context.Context, w workload) (float64, error) {
	poc, err := attacks.ByName("FR-IAIK", attacks.DefaultParams())
	if err != nil {
		return 0, err
	}
	m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
	if err != nil {
		return 0, err
	}
	var firsts []float64
	for k := 0; k < 5; k++ {
		det, err := w.freshDetector()
		if err != nil {
			return 0, err
		}
		var d [2]float64
		for j := range d {
			t0 := time.Now()
			if _, err := det.ClassifyBBSCtx(ctx, m.BBS); err != nil {
				return 0, err
			}
			d[j] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		firsts = append(firsts, d[0]-d[1])
	}
	return median(firsts), nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	scaguard "repro"
	"repro/internal/attacks"
	"repro/internal/cfg"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/window"
)

// warmPerClass sizes the warm-up chunk of the fresh-target workloads.
const warmPerClass = 4

// freshTargets is the chunked stream of distinct seeded targets shared
// by batch-fresh and watch-online.
type freshTargets struct {
	seed    int64
	targets []target
}

func (f *freshTargets) chunk(c int) (int, error) {
	per := freshPerClass
	if c < 0 {
		per = warmPerClass
	}
	t, err := freshChunk(f.seed, c, per)
	f.targets = t
	return len(t), err
}

func (f *freshTargets) release() { f.targets = nil }

// matchCounts returns how many matches a result returned and how many
// of them are marked Pruned.
func matchCounts(r detect.Result) (n, pruned int) {
	for _, m := range r.Matches {
		if m.Pruned {
			pruned++
		}
	}
	return len(r.Matches), pruned
}

// pipeline classifies one target through the calls ClassifyCtx chains
// — machine set-up, simulation, model extraction (CFG recovery
// included), scan — each in its own span, so a traced operation does
// the same work as an untraced one. With c non-nil (the probe) it
// first times a standalone cfg.Build, for cfg.build_us and for
// model.extract_us, which subtracts it from BuildFromTrace, and it
// accumulates the exact counts and the simulator's allocation into c.
func pipeline(ctx context.Context, b *spanBuf, det *detect.Detector, prog, victim *isa.Program, c *counts) (detect.Result, error) {
	if c != nil {
		s := b.begin("cfg.build")
		_, err := cfg.Build(prog)
		b.end(s, 0)
		if err != nil {
			return detect.Result{}, err
		}
	}
	var a0 uint64
	if c != nil {
		a0, _ = readRuntime()
	}
	s := b.begin("exec.setup")
	m, err := exec.NewMachine(det.ModelCfg.Exec, prog, victim)
	b.end(s, 0)
	if err != nil {
		return detect.Result{}, err
	}
	s = b.begin("exec.run")
	tr := m.Run()
	b.end(s, int64(tr.Retired))
	if c != nil {
		a1, _ := readRuntime()
		c.execAllocBytes += a1 - a0
	}
	s = b.begin("model.build_from_trace")
	mod, err := model.BuildFromTrace(prog, tr, m.Hierarchy().LLC().Config(), det.ModelCfg)
	b.end(s, 0)
	if err != nil {
		return detect.Result{}, err
	}
	s = b.begin("detect.classify_bbs")
	res, err := det.ClassifyBBSCtx(ctx, mod.BBS)
	b.end(s, 0)
	if c != nil {
		c.targets++
		c.retired += int64(tr.Retired)
		c.cycles += int64(tr.Cycles)
		c.events += int64(len(tr.Events))
		c.bbsLen += int64(mod.BBS.Len())
		c.models++
		c.gateable++
		if det.GateReason(mod.BBS) != "" {
			c.gated++
		}
	}
	return res, err
}

// watchPipeline is the sliding-window path Watch chains — machine
// set-up with the event log on, simulation, replay of the log through
// the windowed detector — each call in its own span. With c non-nil it
// accumulates the probe's exact counts; with o non-nil it counts the
// windows' returned and pruned matches into o.
func watchPipeline(ctx context.Context, b *spanBuf, det *detect.Detector, prog, victim *isa.Program, c *counts, o *outcome) (window.Outcome, error) {
	ecfg := exec.DefaultConfig()
	ecfg.RecordEvents = true
	var a0 uint64
	if c != nil {
		a0, _ = readRuntime()
	}
	s := b.begin("exec.setup")
	m, err := exec.NewMachine(ecfg, prog, victim)
	b.end(s, 0)
	if err != nil {
		return window.Outcome{}, err
	}
	s = b.begin("exec.run")
	tr := m.Run()
	b.end(s, int64(tr.Retired))
	if c != nil {
		a1, _ := readRuntime()
		c.execAllocBytes += a1 - a0
	}
	var emit func(window.Verdict)
	if c != nil || o != nil {
		emit = func(v window.Verdict) {
			if o != nil {
				n, p := matchCounts(v.Result)
				o.matches += n
				o.pruned += p
			}
			if c == nil {
				return
			}
			c.windows++
			switch v.Reason {
			case "":
				if v.Err == nil {
					c.scanned++
					c.gateable++
					c.bbsLen += int64(v.ModelLen)
					c.models++
				}
			case detect.GateModelTooShort, detect.GateNoTimerReads:
				c.gated++
				c.gateable++
				c.bbsLen += int64(v.ModelLen)
				c.models++
			}
		}
	}
	s = b.begin("window.replay")
	out, err := window.Replay(ctx, det, prog, m.Hierarchy().LLC().Config(), tr, window.Config{}, emit)
	b.end(s, 0)
	if c != nil {
		c.targets++
		c.retired += int64(tr.Retired)
		c.cycles += int64(tr.Cycles)
		c.events += int64(len(tr.Events))
		if lat, ok := out.LatencyToDetection(); ok {
			c.detectCycles = append(c.detectCycles, float64(lat))
		}
	}
	return out, err
}

// batchFresh: callers classify distinct seeded targets through the
// facade on the default four-PoC detector.
type batchFresh struct {
	freshTargets
	det  *detect.Detector
	warm attacks.PoC
}

func newBatchFresh(seed int64) (*batchFresh, error) {
	warm, err := attacks.ByName("FR-Mastik", attacks.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &batchFresh{freshTargets: freshTargets{seed: seed}, warm: warm}, nil
}

func (w *batchFresh) freshDetector() (*detect.Detector, error) { return scaguard.NewDetector() }

func (w *batchFresh) setup() error {
	det, err := w.freshDetector()
	if err != nil {
		return err
	}
	if _, _, err := det.ClassifyCtx(context.Background(), w.warm.Program, w.warm.Victim); err != nil {
		return err
	}
	w.det = det
	return nil
}

func (w *batchFresh) op(ctx context.Context, b *spanBuf, i int) outcome {
	t := w.targets[i]
	var res detect.Result
	var err error
	if b == nil {
		res, _, err = w.det.ClassifyCtx(ctx, t.Prog, t.Victim)
	} else {
		root := b.begin("op")
		res, err = pipeline(ctx, b, w.det, t.Prog, t.Victim, nil)
		b.end(root, 0)
	}
	o := outcome{v: verdictOf(res), label: t.Label, id: t.ID, err: err}
	o.matches, o.pruned = matchCounts(res)
	return o
}

func (w *batchFresh) serial(ctx context.Context, b *spanBuf, i int, c *counts) (verdict, error) {
	t := w.targets[i]
	res, err := pipeline(ctx, b, w.det, t.Prog, t.Victim, c)
	return verdictOf(res), err
}

func (w *batchFresh) detector() *detect.Detector { return w.det }
func (w *batchFresh) close()                     {}

// corpusDetector builds a detector over the saved mutation corpus,
// loaded the way a deployment loads its repository.
func corpusDetector(corpus []byte) (*detect.Detector, error) {
	repo, err := scaguard.LoadRepository(bytes.NewReader(corpus))
	if err != nil {
		return nil, err
	}
	return scaguard.NewDetectorFromRepository(repo), nil
}

// watchOnline: callers watch distinct seeded traces online against the
// mutation corpus.
type watchOnline struct {
	freshTargets
	corpus []byte
	det    *detect.Detector
	warm   attacks.PoC
}

func newWatchOnline(seed int64) (*watchOnline, error) {
	corpus, err := corpusBytes(seed)
	if err != nil {
		return nil, err
	}
	warm, err := attacks.ByName("FR-Mastik", attacks.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &watchOnline{freshTargets: freshTargets{seed: seed}, corpus: corpus, warm: warm}, nil
}

func (w *watchOnline) freshDetector() (*detect.Detector, error) { return corpusDetector(w.corpus) }

func (w *watchOnline) setup() error {
	det, err := w.freshDetector()
	if err != nil {
		return err
	}
	if _, err := scaguard.Watch(context.Background(), det, w.warm.Program, w.warm.Victim, scaguard.WindowConfig{}, nil); err != nil {
		return err
	}
	w.det = det
	return nil
}

func (w *watchOnline) op(ctx context.Context, b *spanBuf, i int) outcome {
	t := w.targets[i]
	o := outcome{label: t.Label, id: t.ID}
	var out window.Outcome
	if b == nil {
		out, o.err = scaguard.Watch(ctx, w.det, t.Prog, t.Victim, scaguard.WindowConfig{}, nil)
	} else {
		root := b.begin("op")
		out, o.err = watchPipeline(ctx, b, w.det, t.Prog, t.Victim, nil, &o)
		b.end(root, 0)
	}
	if o.err == nil && out.Errors > 0 {
		o.err = fmt.Errorf("%s: %d windows failed", t.Name, out.Errors)
	}
	o.v = verdictOf(out.Final)
	return o
}

func (w *watchOnline) serial(ctx context.Context, b *spanBuf, i int, c *counts) (verdict, error) {
	t := w.targets[i]
	out, err := watchPipeline(ctx, b, w.det, t.Prog, t.Victim, c, nil)
	return verdictOf(out.Final), err
}

func (w *watchOnline) detector() *detect.Detector { return w.det }
func (w *watchOnline) close()                     {}

// serveChunk is the number of requests in one chunk of serve-repeat's
// Zipf sequence.
const serveChunk = 2000

// errMismatch marks a verdict that differs from its reference.
var errMismatch = errors.New("verdict differs from the reference")

// reqHeader carries the operation id from a traced request to the
// handler span recorded on the server side.
const reqHeader = "X-Perfbench-Req"

// serveRepeat: keep-alive HTTP clients send unary classifications of a
// Zipf-drawn hot set to an in-process detection server on loopback.
type serveRepeat struct {
	seed   int64
	corpus []byte
	hot    []hotTarget
	refs   []verdict // in-process reference verdict per hot target
	seq    []int     // current chunk: indices into hot

	det    *detect.Detector
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer]
}

func newServeRepeat(seed int64, root string) (*serveRepeat, error) {
	corpus, err := corpusBytes(seed)
	if err != nil {
		return nil, err
	}
	hot, err := hotSet(seed, root)
	if err != nil {
		return nil, err
	}
	w := &serveRepeat{seed: seed, corpus: corpus, hot: hot}
	ref, err := w.freshDetector()
	if err != nil {
		return nil, err
	}
	for _, h := range hot {
		res, _, err := ref.ClassifyCtx(context.Background(), h.Prog, h.Victim)
		if err != nil {
			return nil, fmt.Errorf("reference classification: %w", err)
		}
		w.refs = append(w.refs, verdictOf(res))
	}
	return w, nil
}

func (w *serveRepeat) freshDetector() (*detect.Detector, error) { return corpusDetector(w.corpus) }

// setup loads the corpus, builds the detector and the server, starts
// it on a loopback port and sends one warm-up request.
func (w *serveRepeat) setup() error {
	det, err := w.freshDetector()
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Detector: det})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	callers := runtime.NumCPU()
	w.det, w.srv = det, srv
	w.hs = &http.Server{Handler: w.handler(srv.Handler())}
	go func() { _ = w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/classify"
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers},
	}
	w.seq = []int{0}
	// A wrong verdict is counted by the measured phase; set-up fails
	// only when the service does not answer.
	if o := w.op(context.Background(), nil, 0); o.err != nil && !errors.Is(o.err, errMismatch) {
		return fmt.Errorf("warm-up request: %w", o.err)
	}
	return nil
}

// handler wraps the service's handler with the serve.handler span for
// requests that carry an operation id.
func (w *serveRepeat) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		tr := w.tr.Load()
		if id == "" || tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		req, _ := strconv.ParseInt(id, 10, 64)
		start := time.Now()
		h.ServeHTTP(rw, r)
		tr.addRemote("serve.handler", "serve.http", req, start, time.Now())
	})
}

func (w *serveRepeat) chunk(c int) (int, error) {
	if c < 0 {
		// The warm-up sends every hot target once.
		w.seq = make([]int, len(w.hot))
		for i := range w.seq {
			w.seq[i] = i
		}
	} else {
		w.seq = zipfChunk(w.seed, c, serveChunk, len(w.hot))
	}
	return len(w.seq), nil
}

func (w *serveRepeat) release() { w.seq = nil }

// reportMix prints each hot target's share of a phase's requests next
// to the share the Zipf draw gives it.
func (w *serveRepeat) reportMix(perID map[uint64]int, ops int) {
	cdf := zipfWeights(len(w.hot))
	fmt.Fprintf(os.Stderr, "request mix over %d requests (rank, target, class, measured share, Zipf share):\n", ops)
	prev := 0.0
	for k, h := range w.hot {
		fmt.Fprintf(os.Stderr, "  %2d %-50s %-8s %6.3f %6.3f\n", k+1, h.Name, h.Label,
			float64(perID[h.ID])/float64(ops), (cdf[k]-prev)/cdf[len(cdf)-1])
		prev = cdf[k]
	}
}

// wireVerdict is the part of the service's verdict the benchmark reads.
type wireVerdict struct {
	Verdict *struct {
		Predicted string `json:"predicted"`
		Best      *struct {
			Name  string  `json:"name"`
			Score float64 `json:"score"`
		} `json:"best"`
		Matches []struct {
			Pruned bool `json:"pruned"`
		} `json:"matches"`
		Error string `json:"error"`
	} `json:"verdict"`
}

func (w *serveRepeat) op(ctx context.Context, b *spanBuf, i int) outcome {
	k := w.seq[i]
	h := w.hot[k]
	o := outcome{label: h.Label, id: h.ID}
	root := b.begin("op")
	defer b.end(root, 0)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(h.Body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if b != nil {
		w.tr.Store(b.tr)
		req.Header.Set(reqHeader, strconv.FormatInt(b.req, 10))
	}
	s := b.begin("serve.http")
	resp, err := w.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	b.end(s, int64(len(body)))
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	var wv wireVerdict
	if err := json.Unmarshal(body, &wv); err != nil {
		o.err = err
		return o
	}
	v := wv.Verdict
	if v == nil || v.Error != "" || v.Best == nil {
		o.err = fmt.Errorf("no verdict in %.200s", body)
		return o
	}
	o.v = verdict{Predicted: attacks.Family(v.Predicted), Best: v.Best.Name, Score: v.Best.Score}
	o.matches = len(v.Matches)
	for _, m := range v.Matches {
		if m.Pruned {
			o.pruned++
		}
	}
	if o.v != w.refs[k] {
		o.err = fmt.Errorf("%w: HTTP %+v, in-process %+v", errMismatch, o.v, w.refs[k])
	}
	return o
}

// serial decomposes a hot-set request in process, parsing inline
// sources as the server does, and checks it against the reference.
func (w *serveRepeat) serial(ctx context.Context, b *spanBuf, i int, c *counts) (verdict, error) {
	h := w.hot[w.seq[i]]
	prog := h.Prog
	if h.Source != "" {
		s := b.begin("isa.parse")
		p, err := isa.Parse(prog.Name, h.Source)
		b.end(s, 0)
		if err != nil {
			return verdict{}, err
		}
		prog = p
	}
	res, err := pipeline(ctx, b, w.det, prog, h.Victim, c)
	v := verdictOf(res)
	if err == nil && v != w.refs[w.seq[i]] {
		err = fmt.Errorf("%w: serial %+v, reference %+v", errMismatch, v, w.refs[w.seq[i]])
	}
	return v, err
}

func (w *serveRepeat) detector() *detect.Detector { return w.det }

// close shuts the current server down, draining in-flight requests.
func (w *serveRepeat) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "server drain:", err)
	}
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "http shutdown:", err)
	}
	w.client.CloseIdleConnections()
	w.srv, w.hs = nil, nil
}

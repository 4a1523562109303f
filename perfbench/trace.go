package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Spans live in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the merged span list, -1 for a root
	Req    int64  `json:"req"`    // operation (request) id shared by its spans
	// N is a count the call produced: retired instructions for
	// exec.run, response bytes for serve.http.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the span buffers of one traced phase. Each caller gets
// its own buffer, so recording takes no lock; spans recorded on
// another goroutine (the server's handler) go through remote, which
// links them to their parent by request id when the phase ends.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf

	mu     sync.Mutex
	remote []remoteSpan
}

// remoteSpan is a span recorded off the caller's goroutine whose
// parent is the caller's span named parent in the same request.
type remoteSpan struct {
	span
	parent string
}

func newTracer(callers int) *tracer {
	t := &tracer{epoch: time.Now(), bufs: make([]*spanBuf, callers)}
	for i := range t.bufs {
		t.bufs[i] = &spanBuf{tr: t, cur: -1}
	}
	return t
}

// buf returns caller k's buffer; a nil tracer yields a nil buffer,
// which records nothing.
func (t *tracer) buf(k int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[k]
}

// addRemote records a span made on another goroutine.
func (t *tracer) addRemote(name, parent string, req int64, start, end time.Time) {
	t.mu.Lock()
	t.remote = append(t.remote, remoteSpan{span: span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Req: req}, parent: parent})
	t.mu.Unlock()
}

// spans merges every buffer into one list with global parent indices.
func (t *tracer) spans() []span {
	var out []span
	byReq := map[string]int{}
	for _, b := range t.bufs {
		base := len(out)
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
			byReq[fmt.Sprintf("%s/%d", s.Name, s.Req)] = len(out) - 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.remote {
		s := r.span
		s.Parent = -1
		if p, ok := byReq[fmt.Sprintf("%s/%d", r.parent, s.Req)]; ok {
			s.Parent = p
		}
		out = append(out, s)
	}
	return out
}

// spanBuf is one caller's span stack. All methods are no-ops on a nil
// buffer, which is how untraced runs skip recording.
type spanBuf struct {
	tr    *tracer
	spans []span
	cur   int // innermost open span, -1 when none
	req   int64
}

// begin opens a span under the innermost open one.
func (b *spanBuf) begin(name string) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{Name: name, Start: time.Since(b.tr.epoch).Nanoseconds(), Parent: b.cur, Req: b.req})
	b.cur = len(b.spans) - 1
	return b.cur
}

// end closes span id, recording n as its count.
func (b *spanBuf) end(id int, n int64) {
	if b == nil {
		return
	}
	b.spans[id].End = time.Since(b.tr.epoch).Nanoseconds()
	b.spans[id].N = n
	b.cur = b.spans[id].Parent
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count       int
	Total, Self int64 // ns
	N           int64
	RootShare   float64 // this layer's self time as a share of all root-span time
}

// meanUS is the mean span duration in microseconds (0 without spans).
func (l layerStat) meanUS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Count) / 1e3
}

// aggregate computes per-name statistics. A span's self time is its
// duration minus the part of its interval that its children cover.
func aggregate(spans []span) map[string]layerStat {
	children := make([][]int, len(spans))
	var rootTotal int64
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			rootTotal += s.dur()
		}
	}
	out := map[string]layerStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, spans, children[i])
		st.N += s.N
		out[s.Name] = st
	}
	for name, st := range out {
		if rootTotal > 0 {
			st.RootShare = float64(st.Self) / float64(rootTotal)
		}
		out[name] = st
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// writeSpans writes spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, groups map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, groups); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeSpans(w io.Writer, groups map[string][]span) error {
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		for _, s := range groups[g] {
			if err := enc.Encode(struct {
				Phase string `json:"phase"`
				span
			}{g, s}); err != nil {
				return err
			}
		}
	}
	return nil
}

// printSelfTimes writes the per-layer self-time table of one phase.
func printSelfTimes(w io.Writer, phase string, stats map[string]layerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Self > stats[names[j]].Self })
	fmt.Fprintf(w, "  %s spans: %-24s %8s %12s %12s %8s\n", phase, "layer", "count", "mean_us", "self_us", "self%")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "  %s spans: %-24s %8d %12.1f %12.1f %7.1f%%\n", phase, n, st.Count, st.meanUS(), float64(st.Self)/float64(st.Count)/1e3, 100*st.RootShare)
	}
}

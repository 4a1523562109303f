package main

import (
	"bytes"
	"context"
	"testing"

	scaguard "repro"
)

// fingerprint renders a chunk of targets as bytes: every program's
// disassembly, data and victim, plus its label.
func fingerprint(t *testing.T, ts []target) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, x := range ts {
		b.WriteString(string(x.Label))
		for _, p := range []*scaguard.Program{x.Prog, x.Victim} {
			if p == nil {
				b.WriteString("<nil>\n")
				continue
			}
			b.WriteString(p.Disassemble())
			for _, d := range p.Data {
				b.WriteString(d.Name)
				b.Write(d.Init)
			}
		}
	}
	return b.Bytes()
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	gen := func(seed int64) (fresh, warm, hot []byte, zipf []int, corpus []byte) {
		for _, c := range []struct {
			chunk, per int
			out        *[]byte
		}{{3, freshPerClass, &fresh}, {-1, warmPerClass, &warm}} {
			ts, err := freshChunk(seed, c.chunk, c.per)
			if err != nil {
				t.Fatal(err)
			}
			*c.out = fingerprint(t, ts)
		}
		hs, err := hotSet(seed, "..")
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			hot = append(hot, h.Body...)
		}
		zipf = zipfChunk(seed, 2, serveChunk, len(hs))
		corpus, err = corpusBytes(seed)
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	f1, w1, h1, z1, c1 := gen(7)
	f2, w2, h2, z2, c2 := gen(7)
	f3, w3, h3, z3, c3 := gen(8)

	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name        string
		a, b, other []byte
	}{
		{"fresh chunk", f1, f2, f3},
		{"warm-up chunk", w1, w2, w3},
		{"hot set", h1, h2, h3},
		{"corpus", c1, c2, c3},
	} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("%s: same seed gave different bytes", c.name)
		}
		if bytes.Equal(c.a, c.other) {
			t.Errorf("%s: a different seed gave identical bytes", c.name)
		}
	}
	if !same(z1, z2) {
		t.Error("zipf sequence: same seed gave a different sequence")
	}
	if same(z1, z3) {
		t.Error("zipf sequence: a different seed gave the same sequence")
	}
}

func TestFreshChunksAreDistinctAndBalanced(t *testing.T) {
	seen := map[uint64]bool{}
	repeats, total := 0, 0
	for c := 0; c < 3; c++ {
		ts, err := freshChunk(1, c, freshPerClass)
		if err != nil {
			t.Fatal(err)
		}
		perLabel := map[scaguard.Family]int{}
		for _, x := range ts {
			perLabel[x.Label]++
			if seen[x.ID] {
				repeats++
			}
			seen[x.ID] = true
			total++
		}
		for label, n := range perLabel {
			if n != freshPerClass {
				t.Errorf("chunk %d: %d targets of %s, want %d", c, n, label, freshPerClass)
			}
		}
	}
	if share := float64(repeats) / float64(total); share > 0.02 {
		t.Errorf("%d of %d fresh targets repeat an earlier program", repeats, total)
	}
}

// The decomposed pipelines the traced run times must reach exactly the
// verdicts of the facade calls the untraced run makes.
func TestPipelinesMatchFacade(t *testing.T) {
	ctx := context.Background()
	ts, err := freshChunk(5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := scaguard.NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := corpusBytes(5)
	if err != nil {
		t.Fatal(err)
	}
	cdet, err := corpusDetector(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ts {
		want, _, err := det.ClassifyCtx(ctx, x.Prog, x.Victim)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipeline(ctx, nil, det, x.Prog, x.Victim, nil)
		if err != nil {
			t.Fatal(err)
		}
		if verdictOf(got) != verdictOf(want) {
			t.Errorf("%s: pipeline %+v, ClassifyCtx %+v", x.Name, verdictOf(got), verdictOf(want))
		}
		wout, err := scaguard.Watch(ctx, cdet, x.Prog, x.Victim, scaguard.WindowConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		gout, err := watchPipeline(ctx, nil, cdet, x.Prog, x.Victim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if verdictOf(gout.Final) != verdictOf(wout.Final) || gout.Windows != wout.Windows {
			t.Errorf("%s: watch pipeline %+v (%d windows), Watch %+v (%d windows)", x.Name,
				verdictOf(gout.Final), gout.Windows, verdictOf(wout.Final), wout.Windows)
		}
	}
}

// The hot set's rank order lets the classes take turns, so the head of
// the Zipf draw holds one member of every class, and the draw follows
// the Zipf weights.
func TestHotSetMix(t *testing.T) {
	hs, err := hotSet(1, "..")
	if err != nil {
		t.Fatal(err)
	}
	head := map[scaguard.Family]bool{}
	for _, h := range hs[:5] {
		head[h.Label] = true
	}
	if len(head) != 5 {
		t.Errorf("the five hottest targets cover %d classes, want 5", len(head))
	}
	cdf := zipfWeights(len(hs))
	const n = 100000
	first := 0
	for _, k := range zipfChunk(1, 0, n, len(hs)) {
		if k == 0 {
			first++
		}
	}
	want := cdf[0] / cdf[len(cdf)-1]
	if got := float64(first) / n; got < want-0.01 || got > want+0.01 {
		t.Errorf("hottest target drawn %.3f of the time, want %.3f", got, want)
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/isa"
	"repro/internal/mutate"
)

// Every input the benchmark feeds the program is a pure function of the
// workload seed (plus the two checked-in testdata programs): the same
// seed regenerates byte-identical targets, hot set, request sequence
// and corpus, and each chunk of the fresh-target stream is derived
// from (seed, chunk) alone, so no chunk depends on how many came
// before it.

// target is one program to classify together with the label its
// generator assigned.
type target struct {
	Name   string
	Label  attacks.Family
	Prog   *isa.Program
	Victim *isa.Program
	// ID identifies the program's content (instructions, data and
	// victim, not its name); workload.repeat_share counts repeats of it.
	ID uint64
}

// freshPerClass is the number of targets of each class (four attack
// families plus benign) in one measured chunk of the fresh-target
// stream.
const freshPerClass = 200

// freshChunk generates chunk c (perClass targets per class) of the fresh-target stream: mutated
// variants of every attack family with their victims, plus benign
// programs, drawn from the dataset generators and interleaved class by
// class so every prefix of a chunk has a near-even class mix.
func freshChunk(seed int64, c, perClass int) ([]target, error) {
	chunk := strconv.Itoa(c)
	var classes [][]dataset.Sample
	for _, fam := range attacks.Families() {
		s, err := dataset.AttackSamples(fam, perClass, mutate.DeriveSeed(seed, "fresh", string(fam), chunk), false)
		if err != nil {
			return nil, err
		}
		classes = append(classes, s)
	}
	b, err := dataset.BenignSamples(perClass, mutate.DeriveSeed(seed, "fresh", "benign", chunk))
	if err != nil {
		return nil, err
	}
	// BenignSamples groups by kind; shuffle so the class mix holds in
	// every prefix, not just over the whole chunk.
	rng := rand.New(rand.NewSource(mutate.DeriveSeed(seed, "fresh", "benign-order", chunk)))
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	classes = append(classes, b)

	out := make([]target, 0, perClass*len(classes))
	for i := 0; i < perClass; i++ {
		for _, cl := range classes {
			s := cl[i]
			name := fmt.Sprintf("%s-c%d", s.Name, c)
			s.Program.Name = name
			out = append(out, target{Name: name, Label: s.Label, Prog: s.Program, Victim: s.Victim, ID: programID(s.Program, s.Victim)})
		}
	}
	return out, nil
}

// programID hashes a program's content: its instructions (the
// disassembly minus the header line that carries the name), its data
// segments and its victim's.
func programID(prog, victim *isa.Program) uint64 {
	h := fnv.New64a()
	for _, p := range []*isa.Program{prog, victim} {
		if p == nil {
			h.Write([]byte{0})
			continue
		}
		text := p.Disassemble()
		if i := bytes.IndexByte([]byte(text), '\n'); i >= 0 {
			text = text[i+1:]
		}
		h.Write([]byte(text))
		var buf [8]byte
		for _, d := range p.Data {
			binary.LittleEndian.PutUint64(buf[:], d.Addr)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], d.Size)
			h.Write(buf[:])
			h.Write(d.Init)
		}
	}
	return h.Sum64()
}

// hotTarget is one member of serve-repeat's hot set: the request body
// sent for it and the program it resolves to server-side (resolved
// again here, for the in-process reference classification).
type hotTarget struct {
	Name   string // the spec, or the file sent inline
	Label  attacks.Family
	Body   []byte // the POST /v1/classify request body
	Source string // the inline source; empty for a spec
	Prog   *isa.Program
	Victim *isa.Program
	ID     uint64
}

// hotBenign is the number of seeded benign specs in the hot set.
const hotBenign = 8

// wireTarget mirrors the service's TargetSpec request form.
type wireTarget struct {
	ID     string `json:"id,omitempty"`
	Spec   string `json:"spec,omitempty"`
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
}

// hotSet builds serve-repeat's hot set in rank order, hottest first.
// The members are the attack: specs of the canonical PoCs, the two
// testdata programs sent as inline source, and seeded benign: specs.
// The rank order is an assumption, chosen so that no class dominates
// the draw by sort order: the classes take turns (the four attack
// families in attacks.Families order, then benign), and within a class
// come its canonical PoCs in Table II order, then its testdata program,
// then seeded specs. Which class sits at every rank is fixed, so the
// request mix, and with it the cost of an average request, does not
// depend on the seed; only the benign specs' programs do.
func hotSet(seed int64, root string) ([]hotTarget, error) {
	byClass := map[attacks.Family][]hotTarget{}
	add := func(name string, w wireTarget, label attacks.Family, prog, victim *isa.Program) error {
		body, err := json.Marshal(struct {
			Target wireTarget `json:"target"`
		}{w})
		if err != nil {
			return err
		}
		byClass[label] = append(byClass[label], hotTarget{Name: name, Label: label, Body: body, Source: w.Source, Prog: prog, Victim: victim, ID: programID(prog, victim)})
		return nil
	}
	classes := append(attacks.Families(), attacks.FamilyBenign)
	for _, fam := range classes {
		for _, poc := range attacks.OfFamily(fam, attacks.DefaultParams()) {
			spec := "attack:" + poc.Name
			if err := add(spec, wireTarget{Spec: spec}, poc.Family, poc.Program, poc.Victim); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range []struct {
		file  string
		label attacks.Family
	}{{"handwritten-fr.s", attacks.FamilyFR}, {"handwritten-benign.s", attacks.FamilyBenign}} {
		src, err := os.ReadFile(filepath.Join(root, "testdata", f.file))
		if err != nil {
			return nil, fmt.Errorf("hot set: %w", err)
		}
		prog, err := isa.Parse(f.file, string(src))
		if err != nil {
			return nil, fmt.Errorf("hot set: %w", err)
		}
		if err := add(f.file, wireTarget{ID: f.file, Name: f.file, Source: string(src)}, f.label, prog, nil); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(mutate.DeriveSeed(seed, "hot", "benign")))
	kinds := benign.Kinds()
	for i := 0; i < hotBenign; i++ {
		kind := kinds[i%len(kinds)]
		ts := benign.Templates(kind)
		spec := benign.Spec{Kind: kind, Template: ts[rng.Intn(len(ts))], Seed: rng.Int63()}
		prog, err := benign.Generate(spec)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("benign:%s/%s/%d", spec.Kind, spec.Template, spec.Seed)
		if err := add(name, wireTarget{Spec: name}, attacks.FamilyBenign, prog, nil); err != nil {
			return nil, err
		}
	}
	var hot []hotTarget
	for r := 0; ; r++ {
		took := false
		for _, fam := range classes {
			if r < len(byClass[fam]) {
				hot = append(hot, byClass[fam][r])
				took = true
			}
		}
		if !took {
			return hot, nil
		}
	}
}

// zipfS is the Zipf exponent of serve-repeat's request draw: 0.99, the
// request distribution YCSB's "zipfian" workloads use by default
// (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC
// 2010). Like the rank order, it is an assumption about the traffic,
// not a measurement of it.
const zipfS = 0.99

// zipfWeights returns the cumulative draw weights of a hot set of size
// hot: rank k (from 0) is drawn with probability proportional to
// 1/(k+1)^zipfS.
func zipfWeights(hot int) []float64 {
	cdf := make([]float64, hot)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	return cdf
}

// zipfChunk draws chunk c of serve-repeat's request sequence: n indices
// into a hot set of size hot, Zipf-distributed so index 0 is hottest.
func zipfChunk(seed int64, c, n, hot int) []int {
	cdf := zipfWeights(hot)
	rng := rand.New(rand.NewSource(mutate.DeriveSeed(seed, "zipf", strconv.Itoa(c))))
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cdf, rng.Float64()*cdf[hot-1])
	}
	return out
}

// corpusBytes generates the 500-variant mutation corpus for the seed
// and returns it saved, the form the service and watch-online load it
// from.
func corpusBytes(seed int64) ([]byte, error) {
	repo, err := detect.BuildVariantRepository(detect.CorpusConfig{Seed: mutate.DeriveSeed(seed, "corpus")})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

package exec_test

// The golden trace test pins the complete runtime record the simulator
// produces — per-address records, per-address HPC counts, the cache-set
// trace, the HPC windows, the event log and the run totals — for every
// PoC with its victim, a handful of seeded dataset targets and runs under
// the FIFO and Random replacement policies. Any change to the machine,
// the cache hierarchy or the trace bookkeeping that moves a single count
// or cycle shows up as a fingerprint diff against
// testdata/golden_traces.json.
//
// Regenerate after an intentional simulator change with:
//
//	go test ./internal/exec -run GoldenTraces -update

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/isa"
)

var updateGoldenTraces = flag.Bool("update", false, "rewrite testdata/golden_traces.json from the current simulator")

const goldenTracesPath = "testdata/golden_traces.json"

// goldenTrace is the fingerprint of one run: the readable totals plus a
// SHA-256 over the canonical serialization of the whole trace.
type goldenTrace struct {
	Name      string `json:"name"`
	Retired   uint64 `json:"retired"`
	Transient uint64 `json:"transient"`
	Cycles    uint64 `json:"cycles"`
	Halted    bool   `json:"halted"`
	Addrs     int    `json:"addrs"`
	SetTrace  int    `json:"set_trace"`
	Windows   int    `json:"windows"`
	Events    int    `json:"events"`
	SHA256    string `json:"sha256"`
}

type traceCase struct {
	name  string
	cfg   exec.Config
	progs []*isa.Program // monitored first, then co-runners
}

func goldenTraceCases(t *testing.T) []traceCase {
	t.Helper()
	base := exec.DefaultConfig()
	base.RecordEvents = true
	var cases []traceCase
	add := func(name string, cfg exec.Config, progs ...*isa.Program) {
		var ps []*isa.Program
		for _, p := range progs {
			if p != nil {
				ps = append(ps, p)
			}
		}
		cases = append(cases, traceCase{name: name, cfg: cfg, progs: ps})
	}
	p := attacks.DefaultParams()
	names := append(attacks.Names(), attacks.ExtensionNames()...)
	for _, name := range names {
		poc := mustPoC(t, name)
		add("poc:"+name, base, poc.Program, poc.Victim)
	}

	// Meltdown with its kernel page protected: the architectural read
	// faults, the transient one does not.
	melt := attacks.MeltdownFR(p)
	prot := base
	prot.Protected = []exec.AddrRange{{Base: attacks.MeltdownKernelBase, Size: attacks.MeltdownKernelSize}}
	add("protected:Meltdown-FR", prot, melt.Program)

	// Seeded dataset targets: mutated and obfuscated variants with their
	// victims, and benign programs of every Table III kind.
	for i, fam := range attacks.Families() {
		samples, err := dataset.AttackSamples(fam, 2, int64(101+i), i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			add("dataset:"+s.Name, base, s.Program, s.Victim)
		}
	}
	benigns, err := dataset.BenignSamples(4, 103)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range benigns {
		add("dataset:"+s.Name, base, s.Program)
	}

	// The other replacement policies, so the FIFO stamps and the Random
	// policy's seeded victim sequence are pinned too.
	for _, pol := range []cache.Policy{cache.FIFO, cache.Random} {
		cfg := base
		cfg.Hierarchy.L1D.Policy, cfg.Hierarchy.L1D.Seed = pol, 11
		cfg.Hierarchy.L1I.Policy, cfg.Hierarchy.L1I.Seed = pol, 12
		cfg.Hierarchy.LLC.Policy, cfg.Hierarchy.LLC.Seed = pol, 13
		for _, name := range []string{"PP-IAIK", "FR-Mastik"} {
			poc := mustPoC(t, name)
			add(fmt.Sprintf("%s:%s", pol, name), cfg, poc.Program, poc.Victim)
		}
	}

	// A noisy co-tenant next to the victim, and tight caps on the
	// set trace and the event log so truncation is pinned.
	pp := mustPoC(t, "PP-IAIK")
	add("cotenant:PP-IAIK", base, pp.Program, pp.Victim, benigns[0].Program)
	capped := base
	capped.MaxSetTrace = 100
	capped.MaxEvents = 1000
	capped.WindowWidth = 512
	fr := mustPoC(t, "FR-IAIK")
	add("capped:FR-IAIK", capped, fr.Program, fr.Victim)
	return cases
}

func mustPoC(t *testing.T, name string) attacks.PoC {
	t.Helper()
	poc, err := attacks.ByName(name, attacks.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return poc
}

func runTraceCase(t testing.TB, c traceCase) *exec.Trace {
	m, err := exec.NewMachineMulti(c.cfg, c.progs[0], c.progs[1:]...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return m.Run()
}

// fingerprint serializes every field of the trace in a canonical order
// (map contents sorted by key) and hashes it.
func fingerprint(name string, tr *exec.Trace) goldenTrace {
	h := sha256.New()
	w := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	addrs := tr.Addrs()
	w(uint64(len(addrs)))
	for _, a := range addrs {
		r := tr.ByAddr[a]
		w(a, r.ExecCount, r.FirstCycle)
		writeLineSet(w, r.MemLines)
		writeLineSet(w, r.FlushLines)
	}
	bankAddrs := tr.Bank.Addrs()
	sort.Slice(bankAddrs, func(i, j int) bool { return bankAddrs[i] < bankAddrs[j] })
	w(uint64(len(bankAddrs)))
	for _, a := range bankAddrs {
		c := tr.Bank.At(a)
		w(a)
		w(c[:]...)
	}
	g := tr.Bank.Global()
	w(g[:]...)
	w(uint64(len(tr.SetTrace)))
	for _, s := range tr.SetTrace {
		w(s.Cycle, uint64(s.Set), s.Line, uint64(s.Kind), s.PC)
	}
	w(uint64(len(tr.Windows)))
	for _, win := range tr.Windows {
		w(win.StartCycle)
		w(win.Counts[:]...)
	}
	w(uint64(len(tr.Events)))
	for _, e := range tr.Events {
		w(uint64(e.Kind), e.Cycle, e.PC, e.Line, uint64(e.HPC))
	}
	w(bit(tr.EventsTruncated), tr.Retired, tr.Transient, tr.Cycles, bit(tr.Halted), tr.WindowWidth)
	return goldenTrace{
		Name:      name,
		Retired:   tr.Retired,
		Transient: tr.Transient,
		Cycles:    tr.Cycles,
		Halted:    tr.Halted,
		Addrs:     len(addrs),
		SetTrace:  len(tr.SetTrace),
		Windows:   len(tr.Windows),
		Events:    len(tr.Events),
		SHA256:    hex.EncodeToString(h.Sum(nil)),
	}
}

func writeLineSet(w func(...uint64), set map[uint64]struct{}) {
	lines := make([]uint64, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w(uint64(len(lines)))
	w(lines...)
}

// TestGoldenTraces checks every case's fingerprint against the
// checked-in file.
func TestGoldenTraces(t *testing.T) {
	var got []goldenTrace
	for _, c := range goldenTraceCases(t) {
		got = append(got, fingerprint(c.name, runTraceCase(t, c)))
	}
	if *updateGoldenTraces {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d trace fingerprints to %s", len(got), goldenTracesPath)
		return
	}
	data, err := os.ReadFile(goldenTracesPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with `go test ./internal/exec -run GoldenTraces -update`): %v", err)
	}
	var want []goldenTrace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]goldenTrace, len(want))
	for _, w := range want {
		wantBy[w.Name] = w
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d traces, the corpus %d", len(want), len(got))
	}
	for _, g := range got {
		w, ok := wantBy[g.Name]
		if !ok {
			t.Errorf("%s: not in the golden file", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s: trace changed\n got  %+v\n want %+v", g.Name, g, w)
		}
	}
}

// TestGoldenTracesDistinct guards the fingerprint itself: different
// runs must not collapse onto one digest, and the per-event detail must
// reach it (a run with the event log off differs from one with it on).
func TestGoldenTracesDistinct(t *testing.T) {
	cases := goldenTraceCases(t)
	seen := make(map[string]string)
	for _, c := range cases[:4] {
		fp := fingerprint(c.name, runTraceCase(t, c))
		if prev, dup := seen[fp.SHA256]; dup {
			t.Fatalf("%s and %s share a fingerprint", prev, c.name)
		}
		seen[fp.SHA256] = c.name
	}
	c := cases[0]
	c.cfg.RecordEvents = false
	if fp := fingerprint(c.name, runTraceCase(t, c)); seen[fp.SHA256] != "" {
		t.Fatal("the event log does not reach the fingerprint")
	}
}

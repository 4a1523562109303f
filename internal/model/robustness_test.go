package model

import (
	"math/rand"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/mutate"
)

// The whole pipeline must stay total: arbitrary mutated/obfuscated
// corpus programs and arbitrary benign programs model without error and
// produce structurally valid results.
func TestPipelineTotalOverRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultConfig()
	cfg.Exec = exec.DefaultConfig()
	cfg.Exec.MaxRetired = 150_000

	check := func(name string, m *Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.BBS == nil {
			t.Fatalf("%s: nil BBS", name)
		}
		for _, c := range m.BBS.Seq {
			if c.Before.AO+c.Before.IO > 1.0000001 || c.After.AO+c.After.IO > 1.0000001 {
				t.Errorf("%s: occupancy out of range: %+v", name, c)
			}
			if c.Delta() < 0 || c.Delta() > 1 {
				t.Errorf("%s: delta out of range: %v", name, c.Delta())
			}
		}
	}

	names := attacks.Names()
	for i := 0; i < 8; i++ {
		base, err := attacks.ByName(names[rng.Intn(len(names))], attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var prog = base.Program
		switch rng.Intn(3) {
		case 0:
			prog, err = mutate.Mutate(prog, mutate.LightConfig(rng.Int63()))
		case 1:
			prog, err = mutate.Mutate(prog, mutate.ObfuscationConfig(rng.Int63()))
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(prog, base.Victim, cfg)
		check(prog.Name, m, err)
	}

	for _, kind := range benign.Kinds() {
		for i := 0; i < 3; i++ {
			prog, err := benign.Random(kind, rng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Build(prog, nil, cfg)
			check(prog.Name, m, err)
		}
	}
}

// Modeling must be independent of whether the trace comes from Build's
// own machine or a caller-provided one with identical configuration.
func TestBuildFromTraceMatchesBuild(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	cfg := DefaultConfig()
	direct, err := Build(poc.Program, poc.Victim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := exec.NewMachine(cfg.Exec, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := machine.Run()
	viaTrace, err := BuildFromTrace(poc.Program, tr, machine.Hierarchy().LLC().Config(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.BBS.Len() != viaTrace.BBS.Len() {
		t.Fatalf("BBS lengths differ: %d vs %d", direct.BBS.Len(), viaTrace.BBS.Len())
	}
	for i := range direct.BBS.Seq {
		a, b := direct.BBS.Seq[i], viaTrace.BBS.Seq[i]
		if a.Leader != b.Leader || a.Before != b.Before || a.After != b.After {
			t.Fatalf("CST %d differs", i)
		}
	}
}

func TestBuildFromTraceErrors(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	if _, err := BuildFromTrace(nil, nil, DefaultMeasureCache(), DefaultConfig()); err == nil {
		t.Error("nil program must fail")
	}
	if _, err := BuildFromTrace(poc.Program, nil, DefaultMeasureCache(), DefaultConfig()); err == nil {
		t.Error("nil trace must fail")
	}
	m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	badLLC := cache.Config{Name: "LLC", Sets: 3, Ways: 8, LineSize: 64}
	if _, err := BuildFromTrace(poc.Program, m.Run(), badLLC, DefaultConfig()); err == nil {
		t.Error("an LLC config with a non-power-of-two set count must fail, not panic")
	}
}

package exec_test

// Per-layer simulator benchmarks: machine set-up and the simulation run,
// each over the canonical PoCs with their victims, plus the allocation
// budget of one FR-Mastik detection run (`make alloc-check`).

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/exec"
)

func canonicalPoCs() []attacks.PoC { return attacks.All(attacks.DefaultParams()) }

// BenchmarkNewMachine measures machine set-up: validation, the cache
// hierarchy, memory images of the data segments and the trace.
func BenchmarkNewMachine(b *testing.B) {
	pocs := canonicalPoCs()
	cfg := exec.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poc := pocs[i%len(pocs)]
		if _, err := exec.NewMachine(cfg, poc.Program, poc.Victim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRun measures the simulation run alone (set-up is
// excluded from the timer) and reports the monitored process's retired
// instructions per second as Minstr/s.
func BenchmarkMachineRun(b *testing.B) {
	pocs := canonicalPoCs()
	cfg := exec.DefaultConfig()
	var retired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poc := pocs[i%len(pocs)]
		b.StopTimer()
		m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		retired += m.Run().Retired
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(retired)/s/1e6, "Minstr/s")
	}
}

// machineRunAllocBudget is the allocation budget of one NewMachine+Run
// of FR-Mastik with its victim: the measured 311 plus ~10% headroom for
// runtime-version noise (the map-based simulator took 593). Any
// allocation per simulated step or per trace event blows through it.
const machineRunAllocBudget = 340

func TestMachineRunAllocBudget(t *testing.T) {
	poc, err := attacks.ByName("FR-Mastik", attacks.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.DefaultConfig()
	allocs := testing.AllocsPerRun(20, func() {
		m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
	})
	t.Logf("NewMachine+Run(FR-Mastik): %.0f allocs (budget %d)", allocs, machineRunAllocBudget)
	if allocs > machineRunAllocBudget {
		t.Fatalf("NewMachine+Run(FR-Mastik) allocates %.0f times, budget %d", allocs, machineRunAllocBudget)
	}
}

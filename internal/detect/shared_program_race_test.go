package detect

// Race regression test: detections of one shared *isa.Program on
// several goroutines. cfg.Build and exec.NewMachineMulti validate the
// program once per target; validation must only read a program whose
// code index is current. Run under `go test -race ./internal/detect`
// (part of `make race`).

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/model"
)

func TestClassifySharedProgramConcurrently(t *testing.T) {
	p := attacks.DefaultParams()
	r, err := BuildRepository([]attacks.PoC{attacks.FlushReloadIAIK(p), attacks.PrimeProbeIAIK(p)}, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(r)
	poc := attacks.FlushReloadMastik(p)
	want, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 2
	var wg sync.WaitGroup
	results := make([]Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _, errs[g] = d.Classify(poc.Program, poc.Victim)
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(results[g], want) {
			t.Errorf("goroutine %d: verdict %+v, want %+v", g, results[g], want)
		}
	}
}

package isa

import (
	"sync"
	"testing"
)

// indexFixture is a program with a loop, a forward branch and a call,
// so fallthroughs, static targets and misses all occur.
func indexFixture(t *testing.T, base uint64) *Program {
	t.Helper()
	b := NewBuilder("indexed", base)
	b.Label("top")
	b.Mov(R(R0), Imm(3))
	b.Label("loop")
	b.Dec(R(R0))
	b.Jne("loop")
	b.Call("fn")
	b.Jmp("done")
	b.Label("fn")
	b.Ret()
	b.Label("done")
	b.Hlt()
	return b.MustBuild()
}

// checkIndex compares every lookup of x, built from insns, with a linear
// scan of insns over every address in and around region (a run of
// consecutive instructions of insns).
func checkIndex(t *testing.T, x *CodeIndex, insns, region []Instruction) {
	t.Helper()
	want := func(addr uint64) int {
		for i, in := range insns {
			if in.Addr == addr {
				return i
			}
		}
		return -1
	}
	lo, hi := region[0].Addr, region[len(region)-1].Next()
	for addr := lo - 8; addr < hi+8; addr++ {
		got, ok := x.Index(addr)
		if w := want(addr); (w >= 0) != ok || (ok && got != w) {
			t.Fatalf("Index(%#x) = %d,%v, want %d", addr, got, ok, w)
		}
	}
	for i, in := range insns {
		if x.Next(i) != want(in.Next()) {
			t.Fatalf("Next(%d) = %d, want %d", i, x.Next(i), want(in.Next()))
		}
		w := -1
		if tgt, ok := in.BranchTarget(); ok {
			w = want(tgt)
		}
		if x.Target(i) != w {
			t.Fatalf("Target(%d) = %d, want %d", i, x.Target(i), w)
		}
	}
}

func TestCodeIndexMatchesLinearScan(t *testing.T) {
	p := indexFixture(t, 0x400000)
	checkIndex(t, p.CodeIndex(), p.Insns, p.Insns)
	if p.CodeIndex().sparse != nil {
		t.Fatal("contiguous code should use the dense table")
	}
}

// TestCodeIndexSparseCode: code merged from two distant bases falls
// back to the map and answers identically.
func TestCodeIndexSparseCode(t *testing.T) {
	a := indexFixture(t, 0x400000)
	far := indexFixture(t, 0x9000000)
	p := &Program{Name: "sparse", Entry: a.Entry, Insns: append(append([]Instruction(nil), a.Insns...), far.Insns...)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CodeIndex().sparse == nil {
		t.Fatal("distant code bases should use the sparse map")
	}
	checkIndex(t, p.CodeIndex(), p.Insns, a.Insns)
	checkIndex(t, p.CodeIndex(), p.Insns, far.Insns)
}

// TestValidateRefreshesCodeIndex: a program edited in place after
// assembly (as label patching does) is re-indexed by the next Validate,
// while an unchanged program, or one whose edit moves no address,
// fallthrough or branch target, keeps its index.
func TestValidateRefreshesCodeIndex(t *testing.T) {
	p := indexFixture(t, 0x1000)
	x := p.CodeIndex()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Insns[0].Src = Imm(7)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CodeIndex() != x {
		t.Fatal("Validate re-indexed a program whose layout did not change")
	}
	// Retarget the backward loop branch onto the first instruction.
	jne := 2
	p.Insns[jne].Dst = Imm(int64(p.Insns[0].Addr))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CodeIndex() == x {
		t.Fatal("Validate kept a stale code index")
	}
	if got := p.CodeIndex().Target(jne); got != 0 {
		t.Fatalf("patched target resolves to %d, want 0", got)
	}
	checkIndex(t, p.CodeIndex(), p.Insns, p.Insns)
	if x.Target(jne) != 1 {
		t.Fatalf("old index changed: target %d", x.Target(jne))
	}
	// Moving an instruction's address also re-indexes, and the jump to
	// the moved instruction now dangles.
	x = p.CodeIndex()
	p.Insns[len(p.Insns)-1].Addr += 4
	if err := p.Validate(); err == nil {
		t.Fatal("a jump to the moved instruction must fail validation")
	}
	if p.CodeIndex() == x {
		t.Fatal("Validate kept an index after an address moved")
	}
}

// TestSharedProgramConcurrentUse: validating and reading one program on
// several goroutines is race-free (run with -race).
func TestSharedProgramConcurrentUse(t *testing.T) {
	p := indexFixture(t, 0x2000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := p.Validate(); err != nil {
					t.Error(err)
					return
				}
				if _, ok := p.At(p.Entry); !ok {
					t.Error("entry lost")
					return
				}
			}
		}()
	}
	wg.Wait()
	// A hand-built program used without Validate decodes lazily, also
	// concurrently.
	q := &Program{Name: "lazy", Insns: append([]Instruction(nil), p.Insns...)}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i, ok := q.IndexOf(q.Insns[3].Addr); !ok || i != 3 {
				t.Errorf("IndexOf = %d,%v", i, ok)
			}
		}()
	}
	wg.Wait()
}

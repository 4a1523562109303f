// Package hpc models the hardware performance counters of Table I of the
// paper. The execution engine fires events as it accesses the cache
// hierarchy; a Bank accumulates them globally and per instruction
// address, which is exactly the artefact the paper collects with
// perf-intel-pt and later maps onto basic blocks.
package hpc

import "fmt"

// Event enumerates the HPC events of Table I. Timestamp is listed for
// completeness but is excluded from the per-BB HPC value sum, matching
// the paper ("the sum of the selected 11 HPC events (excluding the
// timestamp)").
type Event uint8

// Table I events.
const (
	L1DLoadMiss    Event = iota // L1 Data Cache Load Miss
	L1DLoadHit                  // L1 Data Cache Load Hit
	L1DStoreHit                 // L1 Data Cache Store Hit
	L1ILoadMiss                 // L1 Instruction Cache Load Miss
	LLCLoadMiss                 // LLC Load Miss
	LLCLoadHit                  // LLC Load Hit
	LLCStoreMiss                // LLC Store Miss
	LLCStoreHit                 // LLC Store Hit
	BranchMiss                  // Branch Miss (mispredicted branch)
	BranchLoadMiss              // Branch Load Miss (BTB miss on a taken branch)
	CacheMiss                   // Cache Miss (any-level miss reaching memory)
	Timestamp                   // Timestamp (virtual cycle counter reads)
	NumEvents
)

// NumCounted is the number of events included in a BB's HPC value
// (all events except Timestamp).
const NumCounted = int(NumEvents) - 1

var eventNames = [NumEvents]string{
	L1DLoadMiss:    "l1d-load-miss",
	L1DLoadHit:     "l1d-load-hit",
	L1DStoreHit:    "l1d-store-hit",
	L1ILoadMiss:    "l1i-load-miss",
	LLCLoadMiss:    "llc-load-miss",
	LLCLoadHit:     "llc-load-hit",
	LLCStoreMiss:   "llc-store-miss",
	LLCStoreHit:    "llc-store-hit",
	BranchMiss:     "branch-miss",
	BranchLoadMiss: "branch-load-miss",
	CacheMiss:      "cache-miss",
	Timestamp:      "timestamp",
}

// String returns the perf-style event name.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Counted reports whether the event contributes to a BB's HPC value.
func (e Event) Counted() bool { return e < NumEvents && e != Timestamp }

// Counts is one fixed-size counter vector over all Table I events.
type Counts [NumEvents]uint64

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	for i := range c {
		c[i] += other[i]
	}
}

// Sum returns the paper's "HPC value": the sum of the 11 counted events.
func (c Counts) Sum() uint64 {
	var s uint64
	for e := Event(0); e < NumEvents; e++ {
		if e.Counted() {
			s += c[e]
		}
	}
	return s
}

// Total returns the sum over every event including Timestamp.
func (c Counts) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// Bank accumulates events globally and attributed per instruction
// address. The zero value is not usable; call NewBank.
type Bank struct {
	global Counts
	byAddr map[uint64]*Counts
}

// NewBank returns an empty counter bank.
func NewBank() *Bank {
	return &Bank{byAddr: make(map[uint64]*Counts)}
}

// Fire records one occurrence of event e attributed to the instruction
// at addr.
func (b *Bank) Fire(e Event, addr uint64) {
	b.FireN(e, addr, 1)
}

// FireN records n occurrences at once.
func (b *Bank) FireN(e Event, addr uint64, n uint64) {
	if e >= NumEvents {
		return
	}
	b.global[e] += n
	b.Counter(addr)[e] += n
}

// Counter returns the counter vector attributed to addr, creating it. A
// caller that fires many events at one address keeps the vector and
// passes it to FireAt, skipping the per-event map lookup; it calls
// Counter only when the first event at addr fires, so Addrs keeps
// listing exactly the addresses with events.
func (b *Bank) Counter(addr uint64) *Counts {
	c := b.byAddr[addr]
	if c == nil {
		c = new(Counts)
		b.byAddr[addr] = c
	}
	return c
}

// FireAt records one occurrence of event e in c, a vector Counter
// returned for this bank.
func (b *Bank) FireAt(e Event, c *Counts) {
	if e >= NumEvents {
		return
	}
	b.global[e]++
	c[e]++
}

// Global returns the machine-wide counter vector.
func (b *Bank) Global() Counts { return b.global }

// At returns the counters attributed to the instruction at addr.
func (b *Bank) At(addr uint64) Counts {
	if c := b.byAddr[addr]; c != nil {
		return *c
	}
	return Counts{}
}

// Addrs returns every instruction address with at least one event.
func (b *Bank) Addrs() []uint64 {
	out := make([]uint64, 0, len(b.byAddr))
	for a := range b.byAddr {
		out = append(out, a)
	}
	return out
}

// HPCValueByAddr returns addr -> Sum() for every attributed address,
// i.e. the map the pipeline folds onto basic blocks.
func (b *Bank) HPCValueByAddr() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(b.byAddr))
	for a, c := range b.byAddr {
		if s := c.Sum(); s > 0 {
			out[a] = s
		}
	}
	return out
}

// Reset clears all counters.
func (b *Bank) Reset() {
	b.global = Counts{}
	b.byAddr = make(map[uint64]*Counts)
}

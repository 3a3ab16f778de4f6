// Package symtab models the symbol table of a traced binary.
//
// The hybrid tracer resolves sampled instruction-pointer values against the
// symbol table of the target program (paper §III-D step 2: "the values of
// the instruction pointer included in each PEBS sample are compared with the
// symbol table of the target program"). In this reproduction the "binary" is
// a simulated program, so functions register themselves here and receive a
// synthetic, non-overlapping address range, exactly as the linker would lay
// them out in an ELF text section.
package symtab

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// DefaultBase is the virtual address at which the first registered function
// is placed. It mirrors the traditional x86-64 text segment start so that
// sampled IPs look like real user-space addresses in dumps.
const DefaultBase uint64 = 0x400000

// fnAlign is the alignment applied to every function start, matching the
// 16-byte alignment used by common compilers.
const fnAlign uint64 = 16

// Fn describes one function of the target program: its name and the
// half-open address range [Base, Base+Size) occupied by its code.
type Fn struct {
	// Name is the symbol name, e.g. "rte_acl_classify".
	Name string
	// Base is the address of the first instruction.
	Base uint64
	// Size is the length of the function body in bytes.
	Size uint64
	// ID is a small dense index assigned in registration order. Analyzers
	// use it to index per-function arrays without hashing.
	ID int
}

// Contains reports whether ip falls inside the function body.
func (f *Fn) Contains(ip uint64) bool {
	return ip >= f.Base && ip < f.Base+f.Size
}

// End returns the first address past the function body.
func (f *Fn) End() uint64 { return f.Base + f.Size }

// String implements fmt.Stringer.
func (f *Fn) String() string {
	return fmt.Sprintf("%s [%#x,%#x)", f.Name, f.Base, f.End())
}

// cacheSlots is the size of the direct-mapped IP→Fn cache. IP locality in
// sampled traces is extreme — a handful of hot functions absorb most
// samples — so a small power-of-two table captures nearly all of it.
const cacheSlots = 256

// cacheSlot maps an IP to its direct-mapped slot. IPs are hashed at
// 64-byte-block granularity so consecutive IPs inside one function body
// share a slot, while distinct hot functions land in distinct slots.
func cacheSlot(ip uint64) uint64 { return (ip >> 6) & (cacheSlots - 1) }

// Table is the symbol table of one simulated binary. Functions are appended
// at increasing addresses; lookups by IP use binary search behind a
// last-hit memo and a small direct-mapped IP→Fn cache. A Table is not
// safe for concurrent mutation, but concurrent Resolve calls after all
// registrations are safe (the simulator registers every function before the
// workload starts, as a real program's text section is fixed at load time):
// the cache entries are atomic pointers whose targets are immutable, and a
// stale entry is rejected by the Contains check, never returned.
type Table struct {
	fns    []*Fn // sorted by Base
	byName map[string]*Fn
	next   uint64

	last         atomic.Pointer[Fn]
	cache        [cacheSlots]atomic.Pointer[Fn]
	hits, misses atomic.Uint64
}

// NewTable returns an empty symbol table starting at DefaultBase.
func NewTable() *Table {
	return &Table{byName: make(map[string]*Fn), next: DefaultBase}
}

// Register adds a function of the given code size and returns its symbol.
// It returns an error if the name is already taken or the size is zero.
func (t *Table) Register(name string, size uint64) (*Fn, error) {
	if name == "" {
		return nil, fmt.Errorf("symtab: empty function name")
	}
	if size == 0 {
		return nil, fmt.Errorf("symtab: function %q has zero size", name)
	}
	if _, dup := t.byName[name]; dup {
		return nil, fmt.Errorf("symtab: duplicate function %q", name)
	}
	base := align(t.next, fnAlign)
	f := &Fn{Name: name, Base: base, Size: size, ID: len(t.fns)}
	t.fns = append(t.fns, f)
	t.byName[name] = f
	t.next = base + size
	return f, nil
}

// MustRegister is Register but panics on error. The simulator's workloads
// register a fixed set of functions at start-up, so failure is a programming
// error, not a runtime condition.
func (t *Table) MustRegister(name string, size uint64) *Fn {
	f, err := t.Register(name, size)
	if err != nil {
		panic(err)
	}
	return f
}

// Resolve maps an instruction pointer to the function containing it, or nil
// if the IP falls outside every registered function (e.g. a sample taken in
// unsymbolized library code).
//
// Resolution is cached: a last-hit memo catches tight sampling loops inside
// one function, and a direct-mapped IP-block cache catches the working set
// of hot functions; both entries self-validate with Contains, so a stale or
// colliding entry costs a fallback to binary search, never a wrong answer.
// Misses that resolve to no function are not cached (they cannot be
// validated cheaply) and count as misses.
func (t *Table) Resolve(ip uint64) *Fn {
	if f := t.last.Load(); f != nil && f.Contains(ip) {
		t.hits.Add(1)
		return f
	}
	slot := &t.cache[cacheSlot(ip)]
	if f := slot.Load(); f != nil && f.Contains(ip) {
		t.hits.Add(1)
		t.last.Store(f)
		return f
	}
	t.misses.Add(1)
	f := t.lookup(ip)
	if f != nil {
		t.last.Store(f)
		slot.Store(f)
	}
	return f
}

// lookup is the uncached binary search over the address-sorted table.
func (t *Table) lookup(ip uint64) *Fn {
	i := sort.Search(len(t.fns), func(i int) bool { return t.fns[i].Base > ip })
	if i == 0 {
		return nil
	}
	if f := t.fns[i-1]; f.Contains(ip) {
		return f
	}
	return nil
}

// CacheStats returns the cumulative Resolve cache hit and miss counts for
// this table (all callers, all goroutines).
func (t *Table) CacheStats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// Resolver is a single-goroutine cached view over a Table. Integration
// workers use one Resolver per core shard: resolution order within a shard
// is deterministic, so the hit/miss counters are reproducible run-to-run
// and identical between sequential and parallel integration — unlike the
// Table's own shared cache, whose counters depend on cross-goroutine
// interleaving. A Resolver must not be shared between goroutines.
type Resolver struct {
	t            *Table
	last         *Fn
	cache        [cacheSlots]*Fn
	hits, misses uint64
}

// NewResolver returns a fresh, cold Resolver over the table.
func (t *Table) NewResolver() *Resolver { return &Resolver{t: t} }

// Resolve is Table.Resolve through this resolver's private cache.
func (r *Resolver) Resolve(ip uint64) *Fn {
	if f := r.last; f != nil && f.Contains(ip) {
		r.hits++
		return f
	}
	slot := &r.cache[cacheSlot(ip)]
	if f := *slot; f != nil && f.Contains(ip) {
		r.hits++
		r.last = f
		return f
	}
	r.misses++
	f := r.t.lookup(ip)
	if f != nil {
		r.last = f
		*slot = f
	}
	return f
}

// Stats returns this resolver's private hit and miss counts.
func (r *Resolver) Stats() (hits, misses uint64) { return r.hits, r.misses }

// ByName returns the function with the given symbol name, or nil.
func (t *Table) ByName(name string) *Fn { return t.byName[name] }

// Fns returns all registered functions in address order. The returned slice
// is owned by the table and must not be modified.
func (t *Table) Fns() []*Fn { return t.fns }

// Len returns the number of registered functions.
func (t *Table) Len() int { return len(t.fns) }

func align(v, a uint64) uint64 {
	return (v + a - 1) / a * a
}

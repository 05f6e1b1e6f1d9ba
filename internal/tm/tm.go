// Package tm defines the word-addressed transactional-memory interface
// shared by the SwissTM baseline (internal/stm) and the TLSTM unified
// runtime (internal/core).
//
// Both runtimes are word-based, exactly like the SwissTM system the paper
// extends: every shared location is a 64-bit word identified by an Addr,
// and conflict detection happens on addresses mapped into a global lock
// table. Data structures (red-black trees, lists, hash tables, the
// Vacation and STMBench7 applications) are written once against the Tx
// interface and run unchanged on either runtime.
package tm

// Addr identifies one 64-bit word of transactional memory. Address 0 is
// the nil address and is never returned by an allocator.
type Addr uint64

// NilAddr is the zero Addr. It plays the role of a NULL pointer for
// word-encoded data structures.
const NilAddr Addr = 0

// Tx is the access handle a transaction (SwissTM) or speculative task
// (TLSTM) passes to transactional code. All loads and stores of shared
// state must go through it; the runtime may restart the enclosing
// transaction or task at any operation, so transactional code must be
// re-executable (no external side effects).
type Tx interface {
	// Load returns the value of the word at a, as observed at a point
	// consistent with every other value this transaction has read
	// (opacity). It may abort and restart the caller.
	Load(a Addr) uint64

	// Store buffers a write of v to the word at a. The write becomes
	// visible to other user-threads only when the enclosing
	// user-transaction commits. It may abort and restart the caller.
	Store(a Addr, v uint64)

	// Alloc returns the base address of a fresh block of n words,
	// zero-initialized. If the enclosing transaction aborts, the block
	// is returned to the allocator.
	Alloc(n int) Addr

	// Free releases the block with base address a. The release takes
	// effect only if the enclosing transaction commits.
	Free(a Addr)
}

// LoadInt64 reads the word at a and reinterprets it as an int64.
func LoadInt64(t Tx, a Addr) int64 { return int64(t.Load(a)) }

// StoreInt64 writes v to the word at a, reinterpreted as a uint64 word.
func StoreInt64(t Tx, a Addr, v int64) { t.Store(a, uint64(v)) }

// LoadAddr reads the word at a and reinterprets it as an Addr (a
// word-encoded pointer).
func LoadAddr(t Tx, a Addr) Addr { return Addr(t.Load(a)) }

// StoreAddr writes the word-encoded pointer p to the word at a.
func StoreAddr(t Tx, a Addr, p Addr) { t.Store(a, uint64(p)) }

// LoadBool reads the word at a as a boolean (non-zero is true).
func LoadBool(t Tx, a Addr) bool { return t.Load(a) != 0 }

// StoreBool writes b to the word at a (1 for true, 0 for false).
func StoreBool(t Tx, a Addr, b bool) {
	if b {
		t.Store(a, 1)
	} else {
		t.Store(a, 0)
	}
}

// SumWords loads the n consecutive words starting at base and returns
// their wrapping sum: the plain committed-read scan the harness's
// read-mostly audit and the runtimes' per-access benchmarks share.
func SumWords(t Tx, base Addr, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		sum += t.Load(base + Addr(i))
	}
	return sum
}

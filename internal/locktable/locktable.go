// Package locktable implements SwissTM's global lock table, shared by the
// baseline STM and the TLSTM runtime, and the versioned-lock array of
// the TL2 and write-through runtimes (VersionLocks).
//
// Every word address maps to a pair of locks:
//
//   - the r-lock holds either a version number (the global commit
//     timestamp at which the word's current value was published) or the
//     Locked sentinel while a committing transaction is publishing it;
//   - the w-lock is either unlocked (nil) or points to the newest
//     write-log entry for that location — in TLSTM, the head of the
//     location's redo-log chain, whose Prev links reach entries written
//     by past tasks of the same user-thread (paper §3.3, "Reading").
//
// Entries carry an OwnerRef header with exactly the cross-thread state
// the paper's contention manager and abort machinery consult: the owner's
// transaction start serial, the owning thread's completed-task counter,
// and the two abort signals (abort-transaction and aborted-internally).
package locktable

import (
	"sync/atomic"
	"unsafe"

	"tlstm/internal/tm"
)

// Locked is the r-lock sentinel installed while a commit publishes the
// location (paper Alg. 3, line 83).
const Locked = ^uint64(0)

// Pair is one (r-lock, w-lock) pair.
type Pair struct {
	// R is the read lock: a version number, or Locked.
	R atomic.Uint64
	// W is the write lock: nil when unlocked, else the newest redo-log
	// entry (its Prev chain holds older same-location entries).
	W atomic.Pointer[WEntry]
}

// WordVal is one buffered write: the target word and its new value.
type WordVal struct {
	Addr tm.Addr
	Val  uint64
}

// WEntry is a write-log entry, and at the same time a node of a
// location's redo-log chain. It extends SwissTM's entry with the serial
// number and user-thread identity of the owning task and the link to the
// previous entry for the same location (paper §3.3).
//
// Words is appended to only by the owning task while it runs; other tasks
// of the same thread read it only after observing (through the thread's
// atomic completed-task counter) that the owner completed, which
// establishes the necessary happens-before edge.
type WEntry struct {
	Owner  *OwnerRef
	Serial int64
	Pair   *Pair // the lock pair this entry is (or was) installed under
	Prev   atomic.Pointer[WEntry]
	Words  []WordVal

	// buf is the inline backing array Words starts on: most entries
	// buffer one or two words (a counter update, a pointer swing), so
	// seeding Words from buf makes a fresh single-word entry cost one
	// allocation instead of two. Updates past cap spill to the heap as
	// usual. Use NewEntry (or reseed Words from Seed) to get the inline
	// storage; a literal WEntry{Words: ...} forgoes it harmlessly.
	buf [2]WordVal
}

// NewEntry allocates an entry carrying one buffered word, with Words
// seeded on the entry's inline buffer.
func NewEntry(owner *OwnerRef, serial int64, p *Pair, a tm.Addr, v uint64) *WEntry {
	e := &WEntry{Owner: owner, Serial: serial, Pair: p}
	e.Words = append(e.buf[:0], WordVal{Addr: a, Val: v})
	return e
}

// Seed resets Words onto the inline buffer with a single buffered word.
// Pool recyclers (txlog.WriteLog) use it so a reused entry sheds any
// heap spill a previous life accumulated.
func (e *WEntry) Seed(serial int64, p *Pair, a tm.Addr, v uint64) {
	e.Serial = serial
	e.Pair = p
	if e.Prev.Load() != nil { // a load is a MOV, a store an XCHG
		e.Prev.Store(nil)
	}
	e.Words = append(e.buf[:0], WordVal{Addr: a, Val: v})
}

// Lookup returns the buffered value for a in this entry, if present.
// A single entry can carry several words when distinct addresses collide
// on one lock pair (SwissTM's lock granularity has the same property).
func (e *WEntry) Lookup(a tm.Addr) (uint64, bool) {
	// Scan backwards so the newest write to a wins.
	for i := len(e.Words) - 1; i >= 0; i-- {
		if e.Words[i].Addr == a {
			return e.Words[i].Val, true
		}
	}
	return 0, false
}

// Update buffers value v for address a in this entry, overwriting a
// previous buffered write to the same address if any.
func (e *WEntry) Update(a tm.Addr, v uint64) {
	for i := len(e.Words) - 1; i >= 0; i-- {
		if e.Words[i].Addr == a {
			e.Words[i].Val = v
			return
		}
	}
	e.Words = append(e.Words, WordVal{Addr: a, Val: v})
}

// OwnerRef is the cross-thread header describing the task (TLSTM) or
// transaction (SwissTM baseline) that owns a write lock. Contention
// managers and the abort machinery read it from other threads, and —
// now that both runtimes recycle their descriptors — a stale entry
// pointer may outlive the incarnation that installed it. The header is
// therefore split into two kinds of field:
//
//   - per-context fields (ThreadID, CompletedTask, AbortInternal) are
//     written exactly once, when the owning descriptor is created, and
//     stay valid for the descriptor's whole pooled lifetime;
//   - per-transaction fields (StartSerial, AbortTx, Timestamp) are
//     re-pointed every time the descriptor is recycled onto a new
//     user-transaction, so they are atomics: a reader holding a stale
//     entry gets the *current* transaction's signal slots. The worst
//     a stale reader can do is signal a spurious abort, which costs
//     one harmless retry — the documented price of an allocation-free
//     hot path (see internal/stm's descriptor-reuse note).
type OwnerRef struct {
	// ThreadID identifies the owning user-thread.
	ThreadID int32
	// StartSerial is the first serial of the owner's user-transaction
	// (tx-start-serial). The task-aware CM computes the owner's progress
	// as completed-task − StartSerial (paper Alg. 2, cm-should-abort).
	StartSerial atomic.Int64
	// CompletedTask points at the owning thread's completed-task
	// counter.
	CompletedTask *atomic.Int64
	// AbortTx points at the abort-transaction signal shared by every
	// task of the owner's current user-transaction.
	AbortTx atomic.Pointer[atomic.Bool]
	// AbortInternal is the owner task's aborted-internally signal
	// (intra-thread WAW, paper Alg. 2 line 47). The flag object lives in
	// the task descriptor and survives recycling, so the pointer is
	// wired once.
	AbortInternal *atomic.Bool
	// Timestamp points at the greedy contention-manager priority of the
	// owner's current user-transaction; lower values are older and win
	// conflicts. Zero means the transaction is still in the polite phase
	// of the two-phase greedy CM. It is shared by every task of the
	// transaction, hence a pointer.
	Timestamp atomic.Pointer[atomic.Uint64]
}

// BindTx re-points the per-transaction fields at a new transaction's
// signal slots: the single mutation a recycled descriptor performs on
// its header. All three fields are atomic, so cross-thread readers
// holding stale entries never race — they just observe the new
// transaction (and may abort it spuriously, which is safe). A pointer
// is stored only when it changed: a descriptor recycled onto the same
// slots (a one-task stream cycles them in step) skips two XCHGs.
func (o *OwnerRef) BindTx(startSerial int64, abortTx *atomic.Bool, timestamp *atomic.Uint64) {
	o.StartSerial.Store(startSerial)
	if o.AbortTx.Load() != abortTx {
		o.AbortTx.Store(abortTx)
	}
	if o.Timestamp.Load() != timestamp {
		o.Timestamp.Store(timestamp)
	}
}

// FreeRing is a pool of retired write-lock entries recycled under a
// quiescence horizon: the per-descriptor half of TLSTM's epoch-based
// entry reclamation (ROADMAP "Epoch-based entry reclamation", option
// (b)).
//
// Entries cannot simply be recycled the moment they leave the lock
// table: TLSTM's validate-task keys on bare entry pointers
// (txlog.ReadEntry.FirstPast), so reusing an entry while any task that
// could have recorded it is still mid-attempt is a textbook ABA — a
// stale read could revalidate against the recycled pointer and pass
// falsely. The ring therefore holds two tiers:
//
//   - free: entries that were never published (a lost install CAS) or
//     whose quiescence has already been established. Reusable
//     immediately.
//   - quiesce: a FIFO of retired entries, each stamped with the
//     retirement serial `at` below which it must stay untouched. An
//     entry is reusable only when the caller's horizon — the owning
//     thread's committed-transaction frontier — has reached its stamp:
//     by then every task whose attempt could span the retirement has
//     exited, so no stale FirstPast pointer to the entry survives.
//
// Stamps pushed into one ring are non-decreasing (retirements of one
// descriptor's entries are serialized by the thread's commit order), so
// Get only ever needs to examine the FIFO head.
//
// A FreeRing is owned by one task descriptor: Get is called only by the
// descriptor's own incarnations, and Retire/Put only by contexts already
// ordered before the descriptor's next use (its own attempt, its
// transaction's commit-task, or an abort cleaner sweeping parked
// participants).
type FreeRing struct {
	free    []*WEntry
	quiesce []RetiredEntry
	head    int

	// cap bounds the quiesce FIFO; retirements past the bound drop the
	// entry to the garbage collector instead (0 means unbounded). A cap
	// of 1 is the "aggressive" test configuration: recycling happens on
	// (almost) every commit instead of only under pipelined load.
	cap int

	reclaims uint64 // entries served from the ring instead of the heap
	stalls   uint64 // Get calls that found only immature retired entries

	// OnReclaim, when set, observes every reuse served from the quiesce
	// tier with the entry's retirement stamps — the hook the reclamation
	// invariant checker (core Config.ReclaimAudit) hangs off. It must be
	// wired before the ring is first used and never changed after.
	OnReclaim func(at, epoch int64)
}

// RetiredEntry is one quiescing entry: the entry itself, the retirement
// serial `At` the owner thread's committed frontier must reach before
// reuse, and the thread's retirement epoch `Epoch` at the moment the
// entry was detached (consumed by the reclamation audit: every task
// whose attempt began below this epoch could still hold the entry).
type RetiredEntry struct {
	E         *WEntry
	At, Epoch int64
}

// SetCap bounds the quiesce FIFO at n retired entries (0 = unbounded).
func (r *FreeRing) SetCap(n int) { r.cap = n }

// Put returns an entry that was never published (or whose quiescence
// the caller has already established) straight to the free tier.
func (r *FreeRing) Put(e *WEntry) {
	if e.Prev.Load() != nil { // drop the chain link (Seed clears it again)
		e.Prev.Store(nil)
	}
	r.free = append(r.free, e)
}

// Retire queues a detached entry for reuse once the owner thread's
// committed frontier reaches at. The caller must have unlinked the
// entry from its chain before calling (stale in-flight readers may
// still compare or read it, which is exactly what the horizon protects).
// Retired entries beyond the configured cap are dropped to the GC; the
// current horizon is consulted first so a full FIFO whose head has
// already matured promotes it instead of dropping the newcomer.
func (r *FreeRing) Retire(e *WEntry, at, epoch, horizon int64) {
	r.promote(horizon)
	if r.cap > 0 && len(r.quiesce)-r.head >= r.cap {
		return // ring full of immature entries: leak the newcomer to the GC
	}
	r.quiesce = append(r.quiesce, RetiredEntry{E: e, At: at, Epoch: epoch})
}

// promote moves every matured quiesce entry to the free tier. The
// audit hook fires here rather than at the eventual free-tier pop: the
// quiescence argument holds from the moment the horizon covers the
// stamp (the frontier is monotonic), and auditing at promotion keeps
// every horizon-gated reuse observed exactly once.
func (r *FreeRing) promote(horizon int64) {
	for r.head < len(r.quiesce) && r.quiesce[r.head].At <= horizon {
		re := r.quiesce[r.head]
		r.free = append(r.free, re.E)
		r.quiesce[r.head] = RetiredEntry{}
		r.head++
		if r.OnReclaim != nil {
			r.OnReclaim(re.At, re.Epoch)
		}
	}
	if r.head == len(r.quiesce) {
		r.quiesce = r.quiesce[:0]
		r.head = 0
	}
}

// Get returns a reusable entry, or nil if the ring has none whose
// retirement serial the horizon covers (the caller then allocates
// fresh). The returned entry must be re-initialized with WEntry.Seed
// before use.
func (r *FreeRing) Get(horizon int64) *WEntry {
	if len(r.free) == 0 {
		r.promote(horizon)
	}
	if n := len(r.free); n > 0 {
		e := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		r.reclaims++
		return e
	}
	if r.head < len(r.quiesce) {
		r.stalls++ // only immature retired entries: the caller allocates
	}
	return nil
}

// Quiescing reports how many retired entries are still waiting for
// their horizon (tests).
func (r *FreeRing) Quiescing() int { return len(r.quiesce) - r.head }

// Free reports how many entries are immediately reusable (tests).
func (r *FreeRing) Free() int { return len(r.free) }

// TakeCounts returns and clears the ring's reclaim/stall counters.
func (r *FreeRing) TakeCounts() (reclaims, stalls uint64) {
	reclaims, stalls = r.reclaims, r.stalls
	r.reclaims, r.stalls = 0, 0
	return reclaims, stalls
}

// fibMult is the 64-bit Fibonacci-hashing multiplier (2^64/φ, forced
// odd). Taking the top bits of a*fibMult spreads strided address
// sequences — array scans with power-of-two strides, struct fields at
// fixed offsets — across the whole table, where the old low-bit mask
// folded every stride-2^k scan onto a 1/2^k sliver of the pairs.
const fibMult = 0x9e3779b97f4a7c15

// Layout is the pure address→slot→shard mapping of a sharded lock
// table, separated from the lock storage so Table (pairs) and
// VersionLocks (the bare lock words of tl2 and wtstm) share the exact
// same sharded geometry. A Layout is immutable after construction; the
// mapping never changes at runtime (affinity remaps move threads, not
// addresses — see internal/sched.Placement).
//
// Slots are assigned by Fibonacci hashing and shards are the top
// log2(shards) bits of the slot index, so each shard is one contiguous
// region of the table — the "two-level" structure is an indexing
// convention over a single flat allocation, which keeps For at one
// multiply+shift and the N=1 case bit-identical to an unsharded table.
type Layout struct {
	bits       int
	shardShift uint
	shards     int
}

// MinBits and MaxBits bound a table's log2 slot count.
const MinBits, MaxBits = 4, 28

// NewLayout builds the mapping for a table of 2^bits slots split into
// shards contiguous regions. bits must lie in [MinBits, MaxBits], and
// shards must be a power of two (0 and 1 both mean unsharded) no larger
// than the slot count.
func NewLayout(bits, shards int) Layout {
	if bits < MinBits || bits > MaxBits {
		panic("locktable: bits out of range [MinBits,MaxBits]")
	}
	if shards <= 0 {
		shards = 1
	}
	if shards&(shards-1) != 0 {
		panic("locktable: shard count must be a power of two")
	}
	sb := 0
	for s := shards; s > 1; s >>= 1 {
		sb++
	}
	if sb > bits {
		panic("locktable: more shards than slots")
	}
	return Layout{bits: bits, shardShift: uint(bits - sb), shards: shards}
}

// Index maps an address to its slot in [0, Slots()).
func (l Layout) Index(a tm.Addr) uint64 {
	return (uint64(a) * fibMult) >> (64 - uint(l.bits))
}

// ShardOf maps an address to its shard in [0, Shards()).
func (l Layout) ShardOf(a tm.Addr) int {
	return int(l.Index(a) >> l.shardShift)
}

// ShardOfIndex maps a slot index (as returned by Index) to its shard.
func (l Layout) ShardOfIndex(idx uint64) int {
	return int(idx >> l.shardShift)
}

// Slots reports the number of lock slots.
func (l Layout) Slots() int { return 1 << l.bits }

// Shards reports the shard count (1 for an unsharded table).
func (l Layout) Shards() int { return l.shards }

// PadStride is the slot stride of a padded table: Pair is 16 B, so a
// stride of 4 gives every pair its own 64 B cache line. Adjacent-slot
// commits then cannot false-share a line at 4× the memory cost.
const PadStride = 4

// Config selects a table geometry. The zero value of Shards and Padded
// gives the historical flat, unpadded layout.
type Config struct {
	// Bits is the log2 of the slot count, in [MinBits, MaxBits].
	Bits int
	// Shards is the power-of-two shard count (0 or 1 = unsharded).
	Shards int
	// Padded strides pairs to one per cache line (PadStride slots of
	// backing array per logical slot).
	Padded bool
}

// Table is the global lock table: a Layout plus the Pair storage it
// indexes. Distinct addresses may share a pair, which yields false
// conflicts but never missed ones (SwissTM's lock granularity).
type Table struct {
	Layout
	pairs  []Pair
	stride uint64
}

// New creates a table with the given geometry.
func New(cfg Config) *Table {
	lay := NewLayout(cfg.Bits, cfg.Shards)
	stride := uint64(1)
	if cfg.Padded {
		stride = PadStride
	}
	return &Table{
		Layout: lay,
		pairs:  make([]Pair, uint64(lay.Slots())*stride),
		stride: stride,
	}
}

// NewTable creates a flat, unpadded table with 2^bits lock pairs: the
// Shards=1 degenerate case of New.
func NewTable(bits int) *Table {
	return New(Config{Bits: bits})
}

// For returns the lock pair covering address a.
func (t *Table) For(a tm.Addr) *Pair {
	return &t.pairs[t.Index(a)*t.stride]
}

// ShardOfPair reports the shard of a pair previously returned by For.
// Validation loops hold only the *Pair recorded in a read-log entry, so
// the reverse mapping recovers the shard by pointer arithmetic within
// the table's single contiguous allocation.
func (t *Table) ShardOfPair(p *Pair) int {
	return t.ShardOfIndex(offsetOf(t.pairs, p) / t.stride)
}

// offsetOf is the position of *p within s's contiguous backing array.
func offsetOf[T any](s []T, p *T) uint64 {
	return uint64((uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(&s[0]))) / unsafe.Sizeof(s[0]))
}

// VersionLocks is the lock storage of the version-lock runtimes (tl2,
// wtstm): one bare versioned lock per slot of a Layout, holding a
// version number or Locked. The zero value is unusable; build it with
// NewVersionLocks over the runtime's Layout.
type VersionLocks struct {
	lay   Layout
	words []atomic.Uint64
}

// NewVersionLocks allocates one versioned lock per slot of lay.
func NewVersionLocks(lay Layout) VersionLocks {
	return VersionLocks{lay: lay, words: make([]atomic.Uint64, lay.Slots())}
}

// For returns the versioned lock covering address a.
func (v *VersionLocks) For(a tm.Addr) *atomic.Uint64 { return &v.words[v.lay.Index(a)] }

// ShardOf reports the shard of a lock previously returned by For (the
// VersionLocks counterpart of Table.ShardOfPair: read logs hold only
// the lock pointer, not the address).
func (v *VersionLocks) ShardOf(l *atomic.Uint64) int {
	return v.lay.ShardOfIndex(offsetOf(v.words, l))
}

// Padded reports whether pairs are strided to one per cache line.
func (t *Table) Padded() bool { return t.stride > 1 }

// Len reports the number of logical lock pairs (used by tests).
func (t *Table) Len() int { return t.Slots() }

// Package txlog is the shared transaction-engine substrate of the four
// runtimes in this repository (internal/stm, internal/core,
// internal/tl2, internal/wtstm): read logs, write logs, write sets,
// undo logs and commit-time scratch buffers, all owned by a transaction
// (or task) descriptor and reused across attempts and — where the
// runtime pools descriptors — across transactions.
//
// The design goal is that every hot-path container here is *pooled and
// reusable*: Reset never frees backing storage, so a warmed transaction
// performs its read/write/commit work without allocating. Before this
// package, each runtime re-implemented this bookkeeping privately and
// the commit paths allocated fresh scratch (a saved-versions slice and
// a pair→version map) on every writer commit. Nor does a small commit
// hash: CommitScratch builds its map only past scanMax pairs.
//
// Two families of primitives exist because the runtimes use two lock
// representations:
//
//   - ReadLog / WriteLog / CommitScratch operate on locktable.Pair
//     (r-lock, w-lock) pairs — used by SwissTM (internal/stm) and TLSTM
//     (internal/core);
//   - VersionedReadLog / LockSet / WriteSet / UndoLog operate on bare
//     versioned locks (atomic.Uint64) — used by TL2 (internal/tl2) and
//     the write-through STM (internal/wtstm).
package txlog

import (
	"math"
	"unsafe"

	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
)

// NoVersion marks read-log entries whose value came from a speculative
// (intra-thread) source rather than committed state: they carry no
// committed version to validate inter-thread (TLSTM tracks their
// validity purely by redo-chain identity, see internal/core).
const NoVersion = ^uint64(0)

// ReadEntry records one read at lock-pair granularity.
//
// Version is the committed version observed (NoVersion for reads served
// from a redo-log chain). FirstPast is TLSTM's chain-identity marker:
// the newest redo-chain entry from a past task of the reading thread at
// read time (nil if none, and always nil in the SwissTM baseline).
type ReadEntry struct {
	Pair      *locktable.Pair
	Version   uint64
	FirstPast *locktable.WEntry
}

// ReadLog is a transaction's read set. The zero value is ready to use;
// Reset retains capacity so a warmed log appends without allocating.
type ReadLog struct {
	entries []ReadEntry
}

// Reset empties the log, keeping its backing storage.
func (rl *ReadLog) Reset() { rl.entries = rl.entries[:0] }

// Append records one read.
func (rl *ReadLog) Append(p *locktable.Pair, version uint64, firstPast *locktable.WEntry) {
	rl.entries = append(rl.entries, ReadEntry{Pair: p, Version: version, FirstPast: firstPast})
}

// Entries exposes the recorded reads for validation loops. The slice is
// owned by the log and valid until the next Append or Reset.
func (rl *ReadLog) Entries() []ReadEntry { return rl.entries }

// Len reports the number of recorded reads.
func (rl *ReadLog) Len() int { return len(rl.entries) }

// Fingerprint is the Retry fingerprint of the pairs read, hashed like a
// commit's CommitScratch.Fingerprint.
func (rl *ReadLog) Fingerprint() (fp mode.Fingerprint) {
	for _, re := range rl.entries {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(re.Pair)))
	}
	return fp
}

// Unchanged reports whether every committed read still finds its pair at
// the version read (a read served from a redo chain, NoVersion, has
// none). It charges no work: the validation the virtual-time model
// charges is txrt.Desc.ValidateReads.
func (rl *ReadLog) Unchanged() bool {
	for _, re := range rl.entries {
		if re.Version != NoVersion && re.Pair.R.Load() != re.Version {
			return false
		}
	}
	return true
}

// WriteLog is a transaction's (or task's) ordered set of write-lock
// entries, with a pool of retired entries (locktable.FreeRing).
//
// Pooling contract: all entries produced by one WriteLog must share the
// same owner — the Owner field of a pooled entry is written exactly
// once, when the entry is first allocated, so stale cross-thread
// readers of Owner never race with reuse. Beyond that, the two runtimes
// that pool entries have different soundness obligations:
//
//   - The SwissTM baseline recycles unconditionally (Recycle/NewEntry):
//     entries are detached by commit/rollback before the next attempt
//     begins, and cross-thread readers consult no field but Owner.
//   - TLSTM's validate-task detects chain changes by entry pointer
//     identity, so there reuse must additionally wait out a quiescence
//     horizon (Retire/RetireCommitted/NewEntryAt): an entry is reusable
//     only once the thread's committed-transaction frontier has passed
//     its retirement serial, which guarantees every task that could
//     hold the pointer as a txlog.ReadEntry.FirstPast marker has
//     exited. Recycling without the horizon is the ABA the reclamation
//     test suite (internal/core/reclaim_test.go) exists to rule out.
type WriteLog struct {
	entries []*locktable.WEntry
	ring    locktable.FreeRing
}

// Ring exposes the log's entry pool for configuration (cap, audit
// hook) and inspection by tests.
func (wl *WriteLog) Ring() *locktable.FreeRing { return &wl.ring }

// Reset drops the log's entries without recycling them (entries keep
// their identity and are left to the GC).
func (wl *WriteLog) Reset() { wl.entries = wl.entries[:0] }

// Recycle moves every logged entry straight to the reusable tier and
// empties the log (SwissTM mode; see the pooling contract above).
func (wl *WriteLog) Recycle() {
	for _, e := range wl.entries {
		wl.ring.Put(e)
	}
	wl.entries = wl.entries[:0]
}

// Retire queues every logged entry for horizon-gated reuse and empties
// the log (TLSTM abort paths: every entry has been detached from its
// chain by the caller). at is the retirement serial reuse must wait
// for, epoch the thread's retirement epoch after the detach, and
// horizon the current committed frontier (used to promote already
// matured entries).
func (wl *WriteLog) Retire(at, epoch, horizon int64) {
	for _, e := range wl.entries {
		wl.ring.Retire(e, at, epoch, horizon)
	}
	wl.entries = wl.entries[:0]
}

// RetireCommitted is Retire for the commit path, where not every entry
// is guaranteed detached: a task of a future transaction may have
// stacked its own entry on top of a written pair, in which case the
// commit's Release leaves that chain — committed entries included — in
// place (they now mirror memory). Only entries whose pair the commit
// actually released (scr.Released) are queued for reuse; the
// still-chained remainder is dropped to the GC, exactly as the
// pre-reclamation runtime dropped every entry.
func (wl *WriteLog) RetireCommitted(scr *CommitScratch, at, epoch, horizon int64) {
	for _, e := range wl.entries {
		if scr.Released(e.Pair) {
			wl.ring.Retire(e, at, epoch, horizon)
		}
	}
	wl.entries = wl.entries[:0]
}

// NewEntry returns an entry initialized with one buffered word, reusing
// a pooled entry when one is immediately available (SwissTM mode: no
// quiescence horizon; see the pooling contract above).
func (wl *WriteLog) NewEntry(owner *locktable.OwnerRef, serial int64, p *locktable.Pair, a tm.Addr, v uint64) *locktable.WEntry {
	return wl.NewEntryAt(owner, serial, p, a, v, math.MaxInt64)
}

// NewEntryAt returns an entry initialized with one buffered word,
// reusing a pooled entry when one is reusable under the given horizon
// (the owning thread's committed-transaction frontier). When only
// immature retired entries exist the ring records a horizon stall and a
// fresh entry is allocated.
func (wl *WriteLog) NewEntryAt(owner *locktable.OwnerRef, serial int64, p *locktable.Pair, a tm.Addr, v uint64, horizon int64) *locktable.WEntry {
	if e := wl.ring.Get(horizon); e != nil {
		e.Seed(serial, p, a, v)
		return e
	}
	return locktable.NewEntry(owner, serial, p, a, v)
}

// TakeReclaimCounts returns and clears the pool's reclaim/stall
// counters (folded into the owning runtime's stats shard at commit).
func (wl *WriteLog) TakeReclaimCounts() (reclaims, stalls uint64) {
	return wl.ring.TakeCounts()
}

// Append records an entry that has been installed in the lock table.
func (wl *WriteLog) Append(e *locktable.WEntry) { wl.entries = append(wl.entries, e) }

// Release returns an entry that was never installed (its CAS lost) to
// the pool, so a contended Store does not leak one pooled entry per
// race. Unpublished entries need no quiescence: no other task can hold
// a pointer to them.
func (wl *WriteLog) Release(e *locktable.WEntry) { wl.ring.Put(e) }

// Entries exposes the installed entries in installation order. The
// slice is owned by the log and valid until the next Append, Reset or
// Recycle.
func (wl *WriteLog) Entries() []*locktable.WEntry { return wl.entries }

// Len reports the number of installed entries.
func (wl *WriteLog) Len() int { return len(wl.entries) }

// CommitScratch holds the commit-time buffers of a writer commit: the
// set of pairs whose r-locks the commit holds and the versions it
// displaced. It replaces the per-commit saved-versions slice and
// pair→version map the runtimes used to allocate; Reset retains all
// backing storage, so a warmed committer does not allocate.
//
// A locked pair is found by a linear scan of pairs while the commit
// holds at most scanMax of them; only a larger commit builds (and its
// Reset clears) the pair→position map.
//
// A CommitScratch belongs to one committing context at a time (one
// SwissTM transaction descriptor, or one TLSTM thread — whose
// transaction commits are serialized).
type CommitScratch struct {
	pairs []*locktable.Pair
	saved []uint64
	index map[*locktable.Pair]int32 // populated iff len(pairs) > scanMax

	// tops holds, per locked pair, the commit's newest entry on it —
	// the one its redo chain must still be headed by for Release to drop
	// the chain — and is cleared when Release does. Entry reclamation
	// consults it: only entries on released pairs are detached and may
	// be queued for reuse (WriteLog.RetireCommitted).
	tops []*locktable.WEntry
}

// scanMax is the largest commit CommitScratch indexes by linear scan,
// set at the crossover BenchmarkCommitScratch shows (2-vCPU Xeon, Go
// 1.24): a scan-only scratch costs 0.6/1.3/2.0/3.7 µs per commit of
// 16/24/32/40 pairs, a map-only one 1.2/1.9/2.4/3.1 µs.
const scanMax = 32

// Reset empties the scratch, keeping its backing storage.
func (cs *CommitScratch) Reset() {
	if len(cs.pairs) > scanMax {
		clear(cs.index)
	}
	cs.pairs = cs.pairs[:0]
	cs.saved = cs.saved[:0]
	cs.tops = cs.tops[:0]
}

// find returns p's position in pairs, if this commit locked it.
func (cs *CommitScratch) find(p *locktable.Pair) (int, bool) {
	if len(cs.pairs) > scanMax {
		i, ok := cs.index[p]
		return int(i), ok
	}
	for i, q := range cs.pairs {
		if q == p {
			return i, true
		}
	}
	return 0, false
}

// LockPair r-locks e's pair (installing the Locked sentinel) and records
// the displaced version, unless this commit already holds the pair. The
// caller offers its entries in program order, so e becomes the commit's
// newest entry on the pair either way. It reports whether the pair was
// newly locked.
func (cs *CommitScratch) LockPair(e *locktable.WEntry) bool {
	p := e.Pair
	if i, dup := cs.find(p); dup {
		cs.tops[i] = e
		return false
	}
	cs.pairs = append(cs.pairs, p)
	cs.saved = append(cs.saved, p.R.Swap(locktable.Locked))
	cs.tops = append(cs.tops, e)
	if n := len(cs.pairs); n > scanMax {
		if cs.index == nil {
			cs.index = make(map[*locktable.Pair]int32, 4*scanMax)
		}
		for i := len(cs.index); i < n; i++ { // first time past scanMax: every pair
			cs.index[cs.pairs[i]] = int32(i)
		}
	}
	return true
}

// Release publishes version ts on every locked pair and drops each
// pair's redo chain whose head is still the commit's newest entry on it,
// detaching every entry the commit installed there. A chain a later
// transaction has stacked an entry on stays: the committed entries below
// it now mirror memory, and that transaction's own commit or abort
// unwinds them.
func (cs *CommitScratch) Release(ts uint64) {
	for i, p := range cs.pairs {
		p.R.Store(ts)
		if p.W.CompareAndSwap(cs.tops[i], nil) {
			cs.tops[i] = nil
		}
	}
}

// Released reports whether this commit's Release dropped p's chain.
func (cs *CommitScratch) Released(p *locktable.Pair) bool {
	i, ok := cs.find(p)
	return ok && cs.tops[i] == nil
}

// Saved returns the version displaced from p, if this commit locked it.
func (cs *CommitScratch) Saved(p *locktable.Pair) (uint64, bool) {
	i, ok := cs.find(p)
	if !ok {
		return 0, false
	}
	return cs.saved[i], true
}

// Restore puts every displaced version back (failed validation).
func (cs *CommitScratch) Restore() {
	for i, p := range cs.pairs {
		p.R.Store(cs.saved[i])
	}
}

// Pairs exposes the locked pairs in locking order. The slice is owned
// by the scratch and valid until the next LockPair or Reset.
func (cs *CommitScratch) Pairs() []*locktable.Pair { return cs.pairs }

// Len reports the number of locked pairs.
func (cs *CommitScratch) Len() int { return len(cs.pairs) }

// Fingerprint is the Retry fingerprint of the pairs this commit locked.
func (cs *CommitScratch) Fingerprint() mode.Fingerprint { return fingerprint(cs.pairs) }

// fingerprint folds the identities of ps into a Retry fingerprint.
func fingerprint[T any](ps []*T) (fp mode.Fingerprint) {
	for _, p := range ps {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(p)))
	}
	return fp
}

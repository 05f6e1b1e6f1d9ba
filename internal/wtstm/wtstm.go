// Package wtstm is a write-through (in-place) software transactional
// memory in the style of TinySTM's write-through design (Felber,
// Fetzer, Riegel — PPoPP'08, the paper's reference [16]).
//
// The TLSTM paper's concluding remarks single this design out as future
// work: "The location redo-logs have also showed to add substantial
// overhead. Hence, different approaches for handling speculative writes
// (e.g. in-place writes [4]) should be studied." This package provides
// that alternative for the study bench (BenchmarkAblationWriteHandling):
//
//   - writes eagerly lock the location's versioned lock, save the old
//     value in an undo log, and update memory *in place*;
//   - reads of a locked location abort (the in-place value is
//     uncommitted); unlocked reads validate against the transaction's
//     read version with timestamp extension, like SwissTM;
//   - commit bumps the global clock and publishes by just releasing
//     locks with the new version — no copy-back pass;
//   - abort restores the undo log in reverse order and releases locks.
//
// The trade-off measured by the ablation: cheap commits and no
// redo-chain traversal on read-own-write, against wasted in-place
// writes on abort and reader-hostile eager locking.
//
// This file is the write-through protocol only: options, statistics and
// the transaction driver are the engine kit's (internal/txrt), the logs
// come from internal/txlog. Descriptors are pooled per runtime, so
// steady-state transactions allocate nothing.
package wtstm

import (
	"runtime"
	"sync"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txtrace"
)

// Option configures a Runtime; the options are the engine kit's.
type Option = txrt.Option

var (
	WithClock = txrt.WithClock
	// WithCM's default is cm.Suicide — one grace yield, then self-abort.
	// The write-through locks are anonymous version words held for whole
	// transaction lifetimes, so policies resolve against a nil owner, and
	// internal/cm bounds any wait-for-the-owner verdict so that two
	// transactions eagerly holding each other's next lock cannot deadlock.
	WithCM = txrt.WithCM
	// WithMultiVersion is, for a write-through runtime, the difference
	// between a reader aborting on any eagerly locked word and reading
	// straight past it from the version ring.
	WithMultiVersion = txrt.WithMultiVersion
	WithTrace        = txrt.WithTrace
	WithMode         = txrt.WithMode
)

// Runtime is one write-through STM instance: the engine kit's
// environment plus the versioned lock array.
type Runtime struct {
	txrt.Env
	locks  locktable.VersionLocks
	txPool sync.Pool // *Tx descriptors, reused across Atomic calls
}

// New creates a runtime with 2^bits versioned locks.
func New(bits int, opts ...Option) *Runtime {
	c := txrt.Config{LockTableBits: bits}
	c.Apply(opts)
	rt := &Runtime{}
	rt.Init("wtstm", mem.NewStore(), c, cm.KindSuicide)
	rt.locks = locktable.NewVersionLocks(rt.Layout)
	return rt
}

// Stats accumulates commits, aborts and work units (txrt.Stats). This
// runtime has no thread descriptor, so the caller-owned shard is the
// logical thread: use one shard per goroutine, with one runtime.
// EntryReclaims and HorizonStalls stay 0 — memory is updated in place
// under versioned locks and the undo log holds plain records, so there
// are no lock-table entries to reclaim.
type Stats = txrt.Stats

// Tx is one write-through transaction descriptor; it implements tm.Tx.
// It is pooled by the runtime and reused across Atomic calls: its read
// log, undo log and held-lock scratch keep their backing storage.
type Tx struct {
	txrt.Desc
	rt *Runtime
	fn func(tx *Tx) // the body of the transaction in flight
	rv uint64

	readLog txlog.VersionedReadLog
	undo    txlog.UndoLog
	held    txlog.LockSet

	// mvSeen dedupes undo records per address during the commit-time
	// version publish (the undo log holds one record per Store, and only
	// the first per address carries the original committed value).
	mvSeen map[tm.Addr]struct{}

	// lastWrites snapshots held.Len() at commit, before Publish empties
	// the set, for the write-set-size histogram.
	lastWrites int
}

var (
	_ tm.Tx          = (*Tx)(nil)
	_ txrt.Algorithm = (*Tx)(nil)
)

// Atomic runs fn as one transaction, retrying until commit.
func (rt *Runtime) Atomic(st *Stats, fn func(tx *Tx)) { rt.run(st, fn, false) }

// AtomicRO runs fn as one transaction declared read-only. With
// multi-versioning enabled (WithMultiVersion), the transaction reads
// the newest version with timestamp <= its snapshot, logs nothing,
// skips validation, and commits unconditionally; a reader overrun by
// more than K writers — or an undeclared store — silently re-runs the
// transaction on the validated path.
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) { rt.run(st, fn, true) }

func (rt *Runtime) run(st *Stats, fn func(tx *Tx), ro bool) {
	tx, _ := rt.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{rt: rt}
		tx.Init(&rt.Env, tx, "wtstm-tx")
	}
	tx.fn = fn
	// Deferred so a panicking body still returns the descriptor: the
	// driver has undone its writes and released its locks and the gate
	// by the time the panic unwinds through here.
	defer rt.put(tx)
	tx.Run(st, ro)
}

func (rt *Runtime) put(tx *Tx) {
	tx.fn = nil
	rt.txPool.Put(tx)
}

// Begin implements txrt.Algorithm.
func (tx *Tx) Begin() uint64 {
	tx.rv = tx.rt.Clk.Now()
	tx.readLog.Reset()
	tx.undo.Reset()
	tx.held.Reset()
	tx.lastWrites = 0
	return tx.rv
}

// Exec implements txrt.Algorithm.
func (tx *Tx) Exec() {
	tx.fn(tx)
	tx.commit()
}

// SetSizes implements txrt.Algorithm (logged reads / held locks).
func (tx *Tx) SetSizes() (reads, writes int) { return tx.readLog.Len(), tx.lastWrites }

// abort unwinds the attempt, recording reason on the trace.
func (tx *Tx) abort(reason uint32) { tx.Abort(tx.rv, reason) }

// Release implements txrt.Algorithm: roll the undo log back in reverse
// order, then release every held lock at a fresh clock tick (TinySTM's
// abort increment) — never at its pre-lock version. A reader's Load
// brackets the word read with two samples of the lock; restoring version
// v would let one that sampled v before the lock was taken and again
// after this release accept the dirty in-place value it read in between.
// The tick is above v (the writer's snapshot covered v before it locked,
// contract T1), so that reader's second sample differs and it re-reads.
func (tx *Tx) Release() {
	recs := tx.undo.Recs()
	for i := len(recs) - 1; i >= 0; i-- {
		tx.rt.Store.StoreWord(recs[i].Addr, recs[i].Old)
		tx.Work++
	}
	if tx.held.Len() > 0 {
		wv := tx.rt.Clk.Tick(nil)
		if tx.Traced {
			// The stamp enters the slots' version histories like a
			// commit's: a later read may observe it.
			for _, rec := range recs {
				tx.Tr.Record(txtrace.KindCommitWord, wv, uint64(rec.Addr), 0)
			}
		}
		tx.held.Publish(wv)
	}
	tx.undo.Reset()
}

// Load implements tm.Tx.
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.MVOn {
		return tx.loadMV(a)
	}
	tx.Tick(1)
	l := tx.rt.locks.For(a)
	if tx.held.Holds(l) {
		// We hold the lock: memory already has our in-place value.
		return tx.rt.Store.LoadWord(a)
	}
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locktable.Locked {
			// Uncommitted in-place data from another transaction: a
			// write-through design cannot read around it. The policy
			// decides between waiting the owner out and aborting (the
			// Suicide default gives one grace yield, then dies — the
			// owner holds the lock for its whole lifetime).
			tx.ResolveConflict(tx.rv, a, cm.PointEncounter, tx.held.Len(), waited, nil)
			waited++
			tx.Work += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		val := tx.rt.Store.LoadWord(a)
		if l.Load() != v1 {
			continue
		}
		if v1 > tx.rv {
			// Extend, then read again: the extension may move rv past a
			// commit that landed after val was sampled, and a later Store
			// to this word would lock it at that newer version and exempt
			// the stale read from commit validation (a lost update).
			if !tx.extendTo(v1) {
				tx.abort(txtrace.AbortExtend)
			}
			continue
		}
		tx.readLog.Append(l, v1)
		if tx.Traced {
			tx.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning (txrt.Desc.ReadMV at the frozen read version),
// never consulting the contention manager. For this write-through
// runtime the ring is what lets a reader pass a word another
// transaction holds eagerly locked for its whole lifetime: memory holds
// uncommitted in-place data, but the last committed versions are
// retained. A miss (ring overrun, or a locked word whose committed
// value predates the ring) re-runs the whole transaction validated —
// the owner can hold the lock arbitrarily long, so waiting here is not
// an option.
func (tx *Tx) loadMV(a tm.Addr) uint64 {
	tx.Tick(1)
	val, _, ok := tx.ReadMV(tx.rt.locks.For(a), a, tx.rv)
	if !ok {
		tx.ExitMV(tx.rv, txtrace.AbortSpec)
	}
	return val
}

// extendTo is the snapshot extension (txrt.Desc.ExtendWith) over the
// lock log. Unlike SwissTM's it exempts the locks this transaction
// holds: a held lock reads Locked, not the version read.
func (tx *Tx) extendTo(witness uint64) bool {
	return tx.ExtendWith(&tx.rv, witness, func() bool { return !tx.staleRead() })
}

// staleRead reports whether a logged lock's version moved since the
// read while this transaction does not hold it. The work charge is one
// unit per ValidationStride entries.
func (tx *Tx) staleRead() bool {
	entries := tx.readLog.Entries()
	for i, re := range entries {
		if i%txrt.ValidationStride == 0 {
			tx.Work++
		}
		if re.Lock.Load() != re.Version && !tx.held.Holds(re.Lock) {
			tx.Validated += uint64(i + 1)
			return true
		}
	}
	tx.Validated += uint64(len(entries))
	return false
}

// Store implements tm.Tx: eager lock, undo log, in-place update.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.MVOn {
		tx.ExitMV(tx.rv, txtrace.AbortSpec) // undeclared store
	}
	tx.Tick(2)
	l := tx.rt.locks.For(a)
	if !tx.held.Holds(l) {
		waited := 0
		for {
			cur := l.Load()
			if cur == locktable.Locked {
				// Writer/writer conflict against an anonymous eager
				// lock: the policy decides (Suicide: one grace yield,
				// then self-abort and retry).
				tx.ResolveConflict(tx.rv, a, cm.PointEncounter, tx.held.Len(), waited, nil)
				waited++
				tx.Work += txrt.WaitRoundCost
				runtime.Gosched()
				continue
			}
			if cur > tx.rv && !tx.extendTo(cur) {
				tx.abort(txtrace.AbortExtend)
			}
			if cur > tx.rv {
				continue
			}
			if l.CompareAndSwap(cur, locktable.Locked) {
				tx.held.Add(l, cur)
				break
			}
		}
	}
	tx.undo.Append(a, tx.rt.Store.LoadWord(a))
	tx.rt.Store.StoreWord(a, v)
	if tx.Traced {
		tx.Tr.Record(txtrace.KindWrite, tx.rv, uint64(a), 0)
	}
}

// Retry is the transactional cond-var wait: abandon this attempt and
// block until a commit whose write set intersects this attempt's read
// set publishes (txrt.Desc.ArmPark), then re-run fn against a fresh
// snapshot.
func (tx *Tx) Retry() {
	if tx.MVOn {
		tx.ExitMV(tx.rv, txtrace.AbortRetry) // the validated re-run parks
	}
	tx.ArmPark(tx.readLog.Fingerprint(), func() bool {
		for _, re := range tx.readLog.Entries() {
			if re.Lock.Load() != re.Version && !tx.held.Holds(re.Lock) {
				return false
			}
		}
		return true
	})
	tx.abort(txtrace.AbortRetry)
}

// commit validates reads, then publishes by releasing locks at the new
// version — the in-place values are already in memory (no copy-back).
func (tx *Tx) commit() {
	if tx.held.Len() == 0 {
		tx.Committed(tx.rv, 0)
		return
	}
	wv := tx.rt.Clk.Tick(nil)
	// wv == rv+1: no other commit since our snapshot (see the TL2
	// commit for the argument).
	if wv != tx.rv+1 {
		if tx.staleRead() {
			tx.TraceValidate(wv, tx.readLog.Len(), false)
			tx.abort(txtrace.AbortValidation)
		}
		tx.TraceValidate(wv, tx.readLog.Len(), true)
	}
	tx.Work += uint64(tx.held.Len())
	// Feed the multi-version store before the undo log is dropped:
	// memory already holds this transaction's in-place values, so the
	// displaced committed value of each written word lives in its first
	// undo record, valid over [displaced lock version, wv).
	if mv := tx.rt.MV; mv != nil {
		tx.publishVersions(wv)
	}
	if tx.Traced {
		// Written-word identities for the opacity checker, taken from the
		// undo log before it is dropped. Per-address repeats (a word this
		// transaction overwrote more than once) are fine: the checker
		// dedups (slot, stamp) pairs within one attempt.
		for _, rec := range tx.undo.Recs() {
			tx.Tr.Record(txtrace.KindCommitWord, wv, uint64(rec.Addr), 0)
		}
	}
	// Publish empties the held set: fingerprint Retry waiters now, ring
	// them after the locks are released at wv (so a woken waiter's
	// validation sees the published versions). The no-waiter fast path
	// is one atomic load.
	var notifyFP mode.Fingerprint
	if tx.rt.Hub.Active() {
		notifyFP = tx.held.Fingerprint()
	}
	tx.lastWrites = tx.held.Len()
	tx.undo.Reset()
	tx.held.Publish(wv)
	if notifyFP != 0 {
		tx.rt.Hub.Notify(notifyFP)
	}
	tx.Committed(wv, tx.lastWrites)
}

// publishVersions walks the undo log in append order, keeping the first
// record per address (the original committed value — later records for
// the same address saved this transaction's own in-place writes).
func (tx *Tx) publishVersions(wv uint64) {
	if tx.mvSeen == nil {
		tx.mvSeen = make(map[tm.Addr]struct{}, 16)
	}
	for _, rec := range tx.undo.Recs() {
		if _, dup := tx.mvSeen[rec.Addr]; dup {
			continue
		}
		tx.mvSeen[rec.Addr] = struct{}{}
		pre, _ := tx.held.Displaced(tx.rt.locks.For(rec.Addr))
		tx.rt.MV.Publish(rec.Addr, rec.Old, pre, wv)
	}
	clear(tx.mvSeen)
}

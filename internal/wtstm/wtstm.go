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
	"sync/atomic"
	"unsafe"

	"tlstm/internal/cm"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txtrace"
)

// locked marks a versioned lock held by a writing transaction.
const locked = ^uint64(0)

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
	WithShards       = txrt.WithShards
	WithAffinity     = txrt.WithAffinity
	WithMode         = txrt.WithMode
)

// Runtime is one write-through STM instance: the engine kit's
// environment plus the versioned lock array.
type Runtime struct {
	txrt.Env
	locks  []atomic.Uint64
	txPool sync.Pool // *Tx descriptors, reused across Atomic calls
}

// New creates a runtime with 2^bits versioned locks.
func New(bits int, opts ...Option) *Runtime {
	c := txrt.Config{LockTableBits: bits}
	c.Apply(opts)
	rt := &Runtime{}
	rt.Init("wtstm", mem.NewStore(), c, cm.KindSuicide)
	rt.locks = make([]atomic.Uint64, rt.Layout.Slots())
	return rt
}

func (rt *Runtime) lockFor(a tm.Addr) *atomic.Uint64 {
	return &rt.locks[rt.Layout.Index(a)]
}

// lockShard recovers the shard of a lock word previously returned by
// lockFor, by pointer arithmetic within the contiguous lock array
// (read-set validation holds only the lock pointer, not the address).
func (rt *Runtime) lockShard(l *atomic.Uint64) int {
	idx := (uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(&rt.locks[0]))) /
		unsafe.Sizeof(atomic.Uint64{})
	return rt.Layout.ShardOfIndex(uint64(idx))
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
	tx.Run(nil, st, ro)
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
		wv := tx.rt.Clk.Tick(&tx.ClkProbe)
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
	l := tx.rt.lockFor(a)
	if tx.held.Holds(l) {
		// We hold the lock: memory already has our in-place value.
		return tx.rt.Store.LoadWord(a)
	}
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locked {
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
				tx.NoteConflictAt(a)
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
// under multi-versioning: serve the newest version with timestamp <=
// the frozen read version — from memory when the current version
// qualifies, else from the version ring — logging nothing and never
// consulting the contention manager. For this write-through runtime the
// ring is what lets a reader pass a word another transaction holds
// eagerly locked for its whole lifetime: memory holds uncommitted
// in-place data, but the last committed versions are retained. A miss
// (ring overrun, or a locked word whose committed value predates the
// ring) re-runs the whole transaction validated — the owner can hold
// the lock arbitrarily long, so waiting here is not an option.
func (tx *Tx) loadMV(a tm.Addr) uint64 {
	tx.Tick(1)
	l := tx.rt.lockFor(a)
	for {
		v1 := l.Load()
		if v1 != locked && v1 <= tx.rv {
			val := tx.rt.Store.LoadWord(a)
			if l.Load() == v1 {
				tx.MVReads++
				if tx.Traced {
					tx.Tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue // torn read: version moved underneath us
		}
		if val, from, ok := tx.rt.MV.ReadAt(a, tx.rv); ok {
			tx.MVReads++
			if tx.Traced {
				// Clock carries the served version's birth stamp, not the
				// snapshot: the opacity checker needs the observed version.
				tx.Tr.Record(txtrace.KindRead, from, uint64(a), 1)
			}
			return val
		}
		tx.MVMisses++
		tx.MVOn = false
		tx.abort(txtrace.AbortSpec)
	}
}

// extendTo revalidates the read log and advances rv after asking the
// clock to cover the witnessed stamp (pre-publishing strategies only
// advance on Observe; without it the stamp that sent us here would
// stay forever ahead of rv and the read would livelock).
func (tx *Tx) extendTo(witness uint64) bool {
	ts := tx.rt.Clk.Observe(witness, &tx.ClkProbe)
	for i, re := range tx.readLog.Entries() {
		if i%txrt.ValidationStride == 0 {
			tx.Work++
		}
		v := re.Lock.Load()
		if v == re.Version {
			continue
		}
		if tx.held.Holds(re.Lock) {
			continue
		}
		if tx.Traced {
			tx.Tr.Record(txtrace.KindExtend, ts, witness, 0)
		}
		return false
	}
	if ts > tx.rv {
		tx.Extends++
		if tx.Traced {
			tx.Tr.Record(txtrace.KindExtend, ts, witness, 1)
		}
	}
	tx.rv = ts
	return true
}

// Store implements tm.Tx: eager lock, undo log, in-place update.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.MVOn {
		// A store in a declared read-only transaction: the earlier
		// multi-version reads were unlogged at a frozen read version, so
		// re-run the attempt on the validated read-write path.
		tx.MVOn = false
		tx.abort(txtrace.AbortSpec)
	}
	tx.Tick(2)
	l := tx.rt.lockFor(a)
	if !tx.held.Holds(l) {
		waited := 0
		for {
			cur := l.Load()
			if cur == locked {
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
				tx.NoteConflictAt(a)
				tx.abort(txtrace.AbortExtend)
			}
			if cur > tx.rv {
				continue
			}
			if l.CompareAndSwap(cur, locked) {
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
// set publishes, then re-run fn against a fresh snapshot. The waiter
// subscribes its read-set fingerprint first, then re-validates the
// read log — a commit that published before the subscription fails the
// validation (immediate re-run, no park); one that publishes after it
// finds the waiter registered and rings its doorbell. An empty or
// already-stale read set never parks.
func (tx *Tx) Retry() {
	if tx.MVOn {
		// Multi-version reads are unlogged: nothing to fingerprint.
		// Re-run on the validated path, where the next Retry can park.
		tx.MVOn = false
		tx.abort(txtrace.AbortRetry)
	}
	var fp mode.Fingerprint
	for _, re := range tx.readLog.Entries() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(re.Lock)))
	}
	if fp != 0 {
		hub := tx.rt.Hub
		hub.Subscribe(&tx.Waiter, fp)
		valid := true
		for _, re := range tx.readLog.Entries() {
			if re.Lock.Load() != re.Version && !tx.held.Holds(re.Lock) {
				valid = false
				break
			}
		}
		if valid {
			tx.ParkPending = true
			tx.ParkFP = uint64(fp)
		} else {
			hub.Unsubscribe(&tx.Waiter)
		}
	}
	tx.abort(txtrace.AbortRetry)
}

// commit validates reads, then publishes by releasing locks at the new
// version — the in-place values are already in memory (no copy-back).
func (tx *Tx) commit() {
	if tx.held.Len() == 0 {
		tx.ApplyFrees()
		if tx.Traced {
			tx.Tr.Record(txtrace.KindCommit, tx.rv, 0, 0)
		}
		return
	}
	wv := tx.rt.Clk.Tick(&tx.ClkProbe)
	// The wv == rv+1 validation skip is sound only on exclusive clocks
	// (see the TL2 commit for the argument).
	if !tx.rt.Exclusive || wv != tx.rv+1 {
		for i, re := range tx.readLog.Entries() {
			if i%txrt.ValidationStride == 0 {
				tx.Work++
			}
			v := re.Lock.Load()
			if v != re.Version && !tx.held.Holds(re.Lock) {
				if tx.Traced {
					tx.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
				}
				tx.NoteConflict(tx.rt.lockShard(re.Lock))
				tx.abort(txtrace.AbortValidation)
			}
		}
		if tx.Traced {
			tx.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 1)
		}
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
	// The write set's lock identities live in the undo log, which is
	// dropped before Publish: fingerprint Retry waiters now, ring them
	// after the locks are released at wv (so a woken waiter's
	// validation sees the published versions). The no-waiter fast path
	// is one atomic load; bloom repeats per address are idempotent.
	var notifyFP mode.Fingerprint
	if hub := tx.rt.Hub; hub.Active() {
		for _, rec := range tx.undo.Recs() {
			notifyFP = mode.FPAdd(notifyFP, uintptr(unsafe.Pointer(tx.rt.lockFor(rec.Addr))))
		}
	}
	tx.lastWrites = tx.held.Len()
	tx.undo.Reset()
	tx.held.Publish(wv)
	if notifyFP != 0 {
		tx.rt.Hub.Notify(notifyFP)
	}
	tx.ApplyFrees()
	if tx.Traced {
		tx.Tr.Record(txtrace.KindCommit, wv, uint64(tx.lastWrites), 0)
	}
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
		pre, _ := tx.held.Displaced(tx.rt.lockFor(rec.Addr))
		tx.rt.MV.Publish(rec.Addr, rec.Old, pre, wv)
	}
	clear(tx.mvSeen)
}

// Package tl2 implements Transactional Locking II (Dice, Shalev, Shavit
// — DISC'06), the STM whose global-version-clock validation SwissTM
// builds on (the paper cites it as [15] for lazy counter-based
// validation). It serves as a second baseline: the SwissTM paper showed
// SwissTM outperforming TL2, and the ablation benchmark
// BenchmarkAblationBaselines checks that relationship holds here too.
//
// Differences from SwissTM (internal/stm), per the two papers:
//
//   - TL2 detects write/write conflicts lazily at commit time (write
//     locks are only taken while committing), where SwissTM acquires
//     write locks eagerly at encounter time;
//   - TL2 aborts immediately on reading a location newer than the
//     transaction's read version (no timestamp extension), where
//     SwissTM revalidates and extends its snapshot;
//   - conflict resolution defaults to pure self-abort with backoff
//     (the cm.Suicide policy); WithCM swaps in any other
//     contention-management strategy — TL2's locks are anonymous
//     version words, so policies resolve against a nil owner and can
//     shape only the requester's waiting, aborting and backoff.
//
// This file is the TL2 protocol only: options, statistics and the
// transaction driver are the engine kit's (internal/txrt), the logs
// come from internal/txlog. Descriptors are pooled per runtime, so
// steady-state transactions allocate nothing.
package tl2

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

// locked marks a versioned lock held by a committing transaction.
const locked = ^uint64(0)

// Option configures a Runtime; the options are the engine kit's.
type Option = txrt.Option

var (
	WithClock        = txrt.WithClock
	WithCM           = txrt.WithCM // default: cm.Suicide, TL2's historical self-abort-with-grace
	WithMultiVersion = txrt.WithMultiVersion
	WithTrace        = txrt.WithTrace
	WithShards       = txrt.WithShards
	WithAffinity     = txrt.WithAffinity
	WithMode         = txrt.WithMode
)

// Runtime is one TL2 instance: the engine kit's environment plus the
// versioned write-lock array (each word a version or locked).
type Runtime struct {
	txrt.Env
	locks  []atomic.Uint64
	txPool sync.Pool // *Tx descriptors, reused across Atomic calls
}

// New creates a TL2 runtime with 2^bits versioned locks.
func New(bits int, opts ...Option) *Runtime {
	c := txrt.Config{LockTableBits: bits}
	c.Apply(opts)
	rt := &Runtime{}
	rt.Init("tl2", mem.NewStore(), c, cm.KindSuicide)
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

// Stats accumulates commits, aborts and work units across Atomic calls
// (txrt.Stats). TL2 has no thread descriptor, so the caller-owned shard
// is the logical thread: use one shard per goroutine, with one runtime.
// SnapshotExtensions, EntryReclaims and HorizonStalls stay 0 — TL2
// aborts instead of extending and pools no lock-table entries.
type Stats = txrt.Stats

// Tx is one TL2 transaction descriptor; it implements tm.Tx. It is
// pooled by the runtime and reused across Atomic calls: its read log,
// write set and held-lock scratch keep their backing storage.
type Tx struct {
	txrt.Desc
	rt *Runtime
	fn func(tx *Tx) // the body of the transaction in flight
	rv uint64       // read version (clock sample at begin)

	// readLog records only lock words: TL2 validates every read
	// against the single read version rv, so per-entry versions would
	// be dead weight (txlog.LockLog vs VersionedReadLog).
	readLog  txlog.LockLog
	writeSet txlog.WriteSet
	held     txlog.LockSet // commit-time write locks
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
		tx.Init(&rt.Env, tx, "tl2-tx")
	}
	tx.fn = fn
	// Deferred so a panicking body still returns the descriptor: the
	// driver has released its locks and the gate by the time the panic
	// unwinds through here.
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
	tx.writeSet.Reset()
	tx.held.Reset()
	return tx.rv
}

// Exec implements txrt.Algorithm.
func (tx *Tx) Exec() {
	tx.fn(tx)
	tx.commit()
}

// Release implements txrt.Algorithm: restore the write locks a failed
// commit took (the body itself holds none).
func (tx *Tx) Release() { tx.held.Restore() }

// SetSizes implements txrt.Algorithm (logged locks / buffered
// addresses).
func (tx *Tx) SetSizes() (reads, writes int) { return tx.readLog.Len(), tx.writeSet.Len() }

// abort unwinds the attempt, recording reason on the trace.
func (tx *Tx) abort(reason uint32) { tx.Abort(tx.rv, reason) }

// Load implements tm.Tx: TL2's versioned read with pre/post lock checks.
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.MVOn {
		return tx.loadMV(a)
	}
	tx.Tick(1)
	if v, buffered := tx.writeSet.Get(a); buffered {
		return v
	}
	l := tx.rt.lockFor(a)
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locked {
			// Locked by a committing transaction mid-publish: the
			// policy decides between riding the publish out and
			// aborting (the Suicide default waits — the hold is short
			// and the committer is past the point of being aborted).
			tx.ResolveConflict(tx.rv, a, cm.PointCommit, tx.writeSet.Len(), waited, nil)
			waited++
			runtime.Gosched()
			continue
		}
		val := tx.rt.Store.LoadWord(a)
		if l.Load() != v1 {
			continue
		}
		if v1 > tx.rv {
			// Newer than our read version: TL2 aborts (no extension).
			// Fold the stamp into the clock first so the retry's fresh
			// read version covers it (pre-publishing strategies never
			// advance on their own).
			tx.rt.Clk.Observe(v1, &tx.ClkProbe)
			tx.NoteConflictAt(a)
			tx.abort(txtrace.AbortValidation)
		}
		tx.readLog.Append(l)
		if tx.Traced {
			tx.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning: serve the newest version with timestamp <=
// the frozen read version — from memory when the current version
// qualifies, else from the version ring — logging nothing. Where
// baseline TL2 aborts on any read past rv, a declared reader only
// leaves this path (and re-runs validated) when the ring has been
// overrun by more than K commits.
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
		if v1 == locked {
			// A committer is publishing this lock; its displaced version
			// lands in the ring, so wait out the brief hold and retry.
			runtime.Gosched()
			continue
		}
		tx.MVMisses++
		tx.MVOn = false
		tx.abort(txtrace.AbortSpec)
	}
}

// Store implements tm.Tx: writes buffer in the write set until commit.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.MVOn {
		// A store in a declared read-only transaction: the earlier
		// multi-version reads were unlogged at a frozen read version, so
		// re-run the attempt on the validated read-write path.
		tx.MVOn = false
		tx.abort(txtrace.AbortSpec)
	}
	tx.Tick(2)
	tx.writeSet.Put(a, v)
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
	for _, l := range tx.readLog.Locks() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(l)))
	}
	if fp != 0 {
		hub := tx.rt.Hub
		hub.Subscribe(&tx.Waiter, fp)
		valid := true
		for _, l := range tx.readLog.Locks() {
			if v := l.Load(); v == locked || v > tx.rv {
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

// commit is TL2's commit: lock the write set (in address order, to
// avoid deadlock between committers), bump the clock, validate the read
// set, publish, release.
func (tx *Tx) commit() {
	if tx.writeSet.Len() == 0 {
		// Read-only: already validated against rv at every read.
		tx.ApplyFrees()
		if tx.Traced {
			tx.Tr.Record(txtrace.KindCommit, tx.rv, 0, 0)
		}
		return
	}

	for _, a := range tx.writeSet.SortedAddrs() {
		l := tx.rt.lockFor(a)
		if tx.held.Holds(l) {
			continue
		}
		waited := 0
		for {
			v := l.Load()
			if v == locked {
				// A competing committer holds this lock. Address-order
				// acquisition rules out committer/committer deadlock,
				// so waiting is safe; whether to wait or abort is the
				// policy's call (the Suicide default spins a bounded
				// commit grace, like the old inlined loop).
				tx.ResolveConflict(tx.rv, a, cm.PointCommit, tx.writeSet.Len(), waited, nil)
				waited++
				tx.Work += txrt.WaitRoundCost
				runtime.Gosched()
				continue
			}
			if v > tx.rv {
				tx.rt.Clk.Observe(v, &tx.ClkProbe)
				tx.NoteConflictAt(a)
				tx.abort(txtrace.AbortConflict)
			}
			if l.CompareAndSwap(v, locked) {
				tx.held.Add(l, v)
				break
			}
		}
		tx.Work++
	}

	wv := tx.rt.Clk.Tick(&tx.ClkProbe)

	// Validate the read set unless nothing could have changed. The
	// wv == rv+1 shortcut is sound only when timestamps are exclusive:
	// a non-exclusive strategy (deferred, sharded) can hand the same wv
	// to a concurrent writer, so "the clock moved once" no longer means
	// "only we committed".
	if !tx.rt.Exclusive || wv != tx.rv+1 {
		for i, l := range tx.readLog.Locks() {
			if i%txrt.ValidationStride == 0 {
				tx.Work++
			}
			v := l.Load()
			if v == locked {
				if !tx.held.Holds(l) {
					if tx.Traced {
						tx.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
					}
					tx.NoteConflict(tx.rt.lockShard(l))
					tx.abort(txtrace.AbortValidation)
				}
				continue
			}
			if v > tx.rv {
				if tx.Traced {
					tx.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
				}
				tx.rt.Clk.Observe(v, &tx.ClkProbe)
				tx.NoteConflict(tx.rt.lockShard(l))
				tx.abort(txtrace.AbortValidation)
			}
		}
		if tx.Traced {
			tx.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 1)
		}
	}

	// Feed the multi-version store while memory still holds the values
	// this commit is about to overwrite: each written word's old value
	// was the committed value over [displaced lock version, wv).
	if mv := tx.rt.MV; mv != nil {
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			pre, _ := tx.held.Displaced(tx.rt.lockFor(a))
			mv.Publish(a, tx.rt.Store.LoadWord(a), pre, wv)
		})
	}

	tx.writeSet.Range(func(a tm.Addr, v uint64) {
		tx.rt.Store.StoreWord(a, v)
		if tx.Traced {
			tx.Tr.Record(txtrace.KindCommitWord, wv, uint64(a), 0)
		}
		tx.Work++
	})
	tx.held.Publish(wv)
	// Ring Retry waiters whose read fingerprints intersect this write
	// set; the no-waiter fast path is one atomic load.
	if hub := tx.rt.Hub; hub.Active() {
		var fp mode.Fingerprint
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(tx.rt.lockFor(a))))
		})
		hub.Notify(fp)
	}
	tx.ApplyFrees()
	if tx.Traced {
		tx.Tr.Record(txtrace.KindCommit, wv, uint64(tx.writeSet.Len()), 0)
	}
}

// Package stm is a from-scratch Go implementation of SwissTM
// (Dragojević, Guerraoui, Kapałka — PLDI'09), the baseline software
// transactional memory that TLSTM extends (paper §3.1).
//
// Algorithm summary, as described in the paper:
//
//   - a global commit counter (commit-ts) acts as a wall clock,
//     incremented by every non-read-only transaction at commit;
//   - every word maps to an (r-lock, w-lock) pair in a global lock
//     table; writers eagerly acquire the w-lock (pessimistic write/write
//     detection) and buffer writes in a redo log;
//   - reads are optimistic and validated lazily: each transaction keeps
//     a valid-ts timestamp up to which all its reads are known
//     consistent, extending it (by revalidating the read log) whenever
//     it observes a newer version;
//   - at commit, writers lock the r-locks of written locations, take a
//     new commit timestamp, validate the read log once more, publish the
//     buffered values, and release both locks;
//   - write/write conflicts go through a two-phase greedy contention
//     manager.
//
// Everything that is not the SwissTM protocol — options, statistics,
// the retry loop, the serialized gate, Retry parking — is the
// engine kit's (internal/txrt); the logs and the commit clock come from
// internal/txlog and internal/clock. Hot paths are allocation-free at
// steady state: a Worker owns a pooled transaction descriptor whose
// logs, scratch buffers and write-lock entries are reused across
// transactions.
package stm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Option configures a Runtime; the shared options are the engine kit's.
type Option = txrt.Option

var (
	WithClock        = txrt.WithClock
	WithCM           = txrt.WithCM // default: SwissTM's two-phase greedy manager
	WithMultiVersion = txrt.WithMultiVersion
	WithTrace        = txrt.WithTrace
	WithMode         = txrt.WithMode
)

// DefaultLockTableBits is the lock-table size (2^bits pairs) used when
// WithLockTableBits is not given; the other runtimes' constructors and
// the harness use it as the common geometry.
const DefaultLockTableBits = txrt.DefaultLockTableBits

// WithLockTableBits sets the lock table to 2^bits pairs.
func WithLockTableBits(bits int) Option {
	return func(c *txrt.Config) { c.LockTableBits = bits }
}

// Runtime is one SwissTM instance: the engine kit's environment (word
// store, allocator, commit clock, contention manager, ...) plus the
// lock-pair table. Independent Runtimes are fully isolated from each
// other.
type Runtime struct {
	txrt.Env
	locks *locktable.Table

	// stats aggregates the shards merged by Worker.Close (SNIPPETS-style
	// per-thread stats: workers accumulate unshared, merge at exit).
	stats txstats.Aggregate[Stats]

	// workerPool backs the descriptor-per-call compatibility entry point
	// (*Runtime).Atomic with reusable Workers.
	workerPool sync.Pool
}

// New creates a SwissTM runtime.
func New(opts ...Option) *Runtime {
	var c txrt.Config
	c.Apply(opts)
	rt := &Runtime{}
	c = rt.Init("stm", mem.NewStore(), c, cm.KindGreedy)
	rt.locks = locktable.NewTable(c.LockTableBits)
	return rt
}

// LoadWordRaw reads a word non-transactionally (setup/verification only).
func (rt *Runtime) LoadWordRaw(a tm.Addr) uint64 { return rt.Store.LoadWord(a) }

// Stats accumulates per-worker execution statistics across Atomic calls
// (txrt.Stats; EntryReclaims counts write-lock entries served from the
// write log's pool — the baseline recycles them unconditionally at
// attempt boundaries, so HorizonStalls stays 0).
type Stats = txrt.Stats

// Stats returns the runtime-global aggregate: the sum of every shard
// merged so far by Worker.Close.
func (rt *Runtime) Stats() Stats { return rt.stats.Snapshot() }

// Tx is one transaction descriptor. It implements tm.Tx. A Tx is only
// valid inside the function passed to Atomic and must not be retained
// or shared across goroutines.
//
// The descriptor is embedded in its Worker and reused across attempts
// and transactions: logs and scratch buffers keep their backing
// storage, retired write-lock entries are recycled through the write
// log's pool, and the owner header and abort/greedy slots are reset in
// place. A consequence of reuse is that a contention manager holding a
// stale entry pointer may signal our abort slot just after a new
// attempt begins; that costs one spurious (harmless) retry and is the
// price of an allocation-free hot path.
type Tx struct {
	txrt.Desc
	rt      *Runtime
	fn      func(tx *Tx) // the body of the transaction in flight
	validTS uint64

	// owner is the stable cross-thread header installed in this
	// descriptor's write-lock entries. Its pointer fields are wired to
	// abortTx and Desc.GreedTS once, at Worker creation.
	owner   locktable.OwnerRef
	abortTx atomic.Bool

	readLog  txlog.ReadLog
	writeLog txlog.WriteLog
	scratch  txlog.CommitScratch
}

var (
	_ tm.Tx          = (*Tx)(nil)
	_ txrt.Algorithm = (*Tx)(nil)
)

// completedZero is a shared always-zero counter: the baseline has no
// task pipeline, so OwnerRef progress is constant.
var completedZero atomic.Int64

// Worker is one execution context — the software analogue of the
// per-thread transaction descriptor every serious TM implementation
// keeps. It owns a reusable Tx and an unshared statistics shard, so at steady state Atomic neither
// allocates nor touches shared stats state. A Worker must be used by
// one goroutine at a time.
type Worker struct {
	rt    *Runtime
	tx    Tx
	stats Stats // unshared shard; merged into rt.stats by Close
}

// NewWorker creates a worker context for this runtime.
func (rt *Runtime) NewWorker() *Worker {
	w := &Worker{rt: rt}
	w.tx.rt = rt
	w.tx.Init(&rt.Env, &w.tx, "stm-worker")
	w.tx.owner = locktable.OwnerRef{
		ThreadID:      -1,
		CompletedTask: &completedZero,
		AbortInternal: &w.tx.abortTx, // no intra-thread signals in the baseline
	}
	// The baseline has no task pipeline and one transaction at a time
	// per descriptor, so the per-transaction slots are bound once.
	w.tx.owner.BindTx(0, &w.tx.abortTx, &w.tx.GreedTS)
	return w
}

// Atomic runs fn as one transaction, retrying on conflict until it
// commits, and accumulates commit/abort counts and work units into the
// worker's private stats shard. fn must be re-executable: it may run
// several times and must not perform external side effects.
func (w *Worker) Atomic(fn func(tx *Tx)) { w.run(&w.stats, fn, false) }

// AtomicRO runs fn as one transaction declared read-only. With
// multi-versioning enabled (WithMultiVersion), the transaction reads
// the newest version with timestamp <= its snapshot, appends nothing to
// the read log, skips validation and extension entirely, and commits
// unconditionally; a reader overrun by more than K writers falls back
// to the validated path. If fn stores after all, the transaction
// silently restarts in validated read-write mode — declaring wrongly
// costs performance, never correctness.
func (w *Worker) AtomicRO(fn func(tx *Tx)) { w.run(&w.stats, fn, true) }

func (w *Worker) run(st *Stats, fn func(tx *Tx), ro bool) {
	w.tx.fn = fn
	w.tx.Run(st, ro)
	w.tx.fn = nil
}

// Stats returns a snapshot of the worker's unshared shard.
func (w *Worker) Stats() Stats { return w.stats }

// Close merges the worker's shard into the runtime-global aggregate and
// zeroes the shard. The worker stays usable (Close acts as a flush).
func (w *Worker) Close() {
	w.rt.stats.Merge(w.stats)
	w.stats = Stats{}
}

// Atomic runs fn as one transaction, retrying on conflict until it
// commits. If st is non-nil, commit/abort counts and work units are
// accumulated into it. fn must be re-executable: it may run several
// times and must not perform external side effects.
//
// This entry point borrows a pooled Worker per call; code with a
// natural per-thread structure should create Workers directly.
func (rt *Runtime) Atomic(st *Stats, fn func(tx *Tx)) { rt.runPooled(st, fn, false) }

// AtomicRO is Atomic with the transaction declared read-only (see
// Worker.AtomicRO).
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) { rt.runPooled(st, fn, true) }

func (rt *Runtime) runPooled(st *Stats, fn func(tx *Tx), ro bool) {
	w, _ := rt.workerPool.Get().(*Worker)
	if w == nil {
		w = rt.NewWorker()
	}
	// Deferred so a panicking body still returns the worker: the driver
	// has released its locks and the gate by the time the panic unwinds
	// through here.
	defer rt.workerPool.Put(w)
	w.run(st, fn, ro)
}

// Begin implements txrt.Algorithm. Entries retired by the previous
// attempt (or previous transaction) are detached from the lock table by
// now, so they are recycled into the entry pool.
func (tx *Tx) Begin() uint64 {
	tx.abortTx.Store(false)
	tx.validTS = tx.rt.Clk.Now()
	tx.readLog.Reset()
	tx.writeLog.Recycle()
	return tx.validTS
}

// Exec implements txrt.Algorithm: the body, then the kit's commit
// (txrt.Desc.Commit) over the transaction's one pair of logs.
func (tx *Tx) Exec() {
	tx.fn(tx)
	if tx.writeLog.Len() != 0 {
		tx.checkSignals()
	}
	ts, ok := tx.Commit([]txrt.Logs{{Read: &tx.readLog, Write: &tx.writeLog}}, &tx.scratch, tx.validTS)
	if !ok {
		tx.abort(txtrace.AbortValidation)
	}
	tx.Committed(ts, tx.writeLog.Len())
}

// Release implements txrt.Algorithm: drop every w-lock the attempt
// holds.
func (tx *Tx) Release() {
	for _, e := range tx.writeLog.Entries() {
		// The baseline never stacks entries: eager W/W locking admits
		// one writer per pair, so our entry is the head with no Prev.
		e.Pair.W.CompareAndSwap(e, nil)
	}
}

// SetSizes implements txrt.Algorithm (logged reads / locked pairs).
func (tx *Tx) SetSizes() (reads, writes int) { return tx.readLog.Len(), tx.writeLog.Len() }

// abort unwinds the attempt, recording reason on the trace.
func (tx *Tx) abort(reason uint32) { tx.Abort(tx.validTS, reason) }

// checkSignals aborts the attempt if another transaction's contention
// manager asked us to.
func (tx *Tx) checkSignals() {
	if tx.abortTx.Load() {
		tx.abort(txtrace.AbortSignal)
	}
}

// Load implements tm.Tx (paper §3.1; TLSTM Alg. 1 line 16 is this path).
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.MVOn {
		return tx.loadMV(a)
	}
	tx.Tick(1)
	p := tx.rt.locks.For(a)
	if e := p.W.Load(); e != nil && e.Owner == &tx.owner {
		if v, hit := e.Lookup(a); hit {
			return v
		}
		// Lock-pair collision: we own the pair but never wrote this
		// address; its committed value is still in memory.
	}
	tx.checkSignals()
	val, ok := tx.ReadCommitted(p, a, &tx.readLog, &tx.validTS, nil)
	if !ok {
		tx.abort(txtrace.AbortExtend)
	}
	return val
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning (txrt.Desc.ReadMV at the frozen snapshot). A
// committer holding the pair Locked is waited out: its displaced
// version lands in the ring. A ring overrun re-runs the whole
// transaction validated.
func (tx *Tx) loadMV(a tm.Addr) uint64 {
	tx.Tick(1)
	p := tx.rt.locks.For(a)
	for {
		val, seen, ok := tx.ReadMV(&p.R, a, tx.validTS)
		if ok {
			return val
		}
		if seen != locktable.Locked {
			tx.ExitMV(tx.validTS, txtrace.AbortSpec)
		}
		runtime.Gosched()
	}
}

// Store implements tm.Tx: eager w-lock acquisition with redo logging.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.MVOn {
		tx.ExitMV(tx.validTS, txtrace.AbortSpec) // undeclared store
	}
	tx.Tick(2)
	p := tx.rt.locks.For(a)
	waited := 0
	for {
		tx.checkSignals()
		e := p.W.Load()
		if e != nil {
			if e.Owner == &tx.owner {
				e.Update(a, v)
				return
			}
			// Lose, or signal the owner.
			tx.ResolveConflict(tx.validTS, a, cm.PointEncounter, tx.writeLog.Len(), waited, e.Owner)
			// AbortOwner and Wait both ride the conflict out for a
			// round; waiting costs real parallel time (the owner
			// progresses about WaitRoundCost per scheduler round).
			waited++
			tx.Work += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		ne := tx.writeLog.NewEntry(&tx.owner, 0, p, a, v)
		if p.W.CompareAndSwap(nil, ne) {
			tx.writeLog.Append(ne)
			break
		}
		tx.writeLog.Release(ne) // CAS lost; recycle the unused entry
	}
	if tx.Traced {
		tx.Tr.Record(txtrace.KindWrite, tx.validTS, uint64(a), 0)
	}
	if !tx.CoverWrite(p, &tx.readLog, &tx.validTS) {
		tx.abort(txtrace.AbortExtend)
	}
}

// Retry is the transactional cond-var wait (aahtm TM_COND_VARS): a
// transaction whose predicate over transactional reads is not yet
// satisfied calls Retry to abandon the attempt and block until a
// conflicting commit — one whose write set intersects this attempt's
// read set — publishes (txrt.Desc.ArmPark), then re-runs from the top
// against a new snapshot, so the predicate is simply re-evaluated.
func (tx *Tx) Retry() {
	if tx.MVOn {
		tx.ExitMV(tx.validTS, txtrace.AbortRetry) // the validated re-run parks
	}
	tx.ArmParkReads(&tx.readLog)
	tx.abort(txtrace.AbortRetry)
}

var _ tm.Tx = (*Tx)(nil)

// Package core implements TLSTM, the unified STM+TLS runtime of the
// paper (Algorithms 1–3): SwissTM extended so that every user-thread is
// decomposed into speculative tasks that execute out of order and commit
// sequentially, while user-transactions spanning one or more tasks keep
// SwissTM's opacity guarantees across threads.
//
// Key vocabulary (paper §2):
//
//   - user-thread: a hand-parallelized thread of the program, here a
//     Thread;
//   - user-transaction: a critical section delimited by the programmer,
//     here one Submit/Atomic call, decomposed into tasks;
//   - speculative task: the unit of speculative execution, here a Task.
//     What used to be a SwissTM transaction is a task in TLSTM (§3.2).
//
// Within a user-thread, at most SPECDEPTH tasks are simultaneously
// active; tasks carry monotonically increasing serial numbers and commit
// in serial order. Intra-thread conflicts (WAR and WAW) are detected with
// per-location redo-log chains and the validate-task procedure;
// inter-thread conflicts reuse SwissTM's machinery plus the task-aware
// contention manager.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Config configures a Runtime.
type Config struct {
	// SpecDepth is SPECDEPTH: the maximum number of simultaneously
	// active tasks per user-thread (paper §3.3). It also bounds the
	// number of tasks a single user-transaction may be split into,
	// because every task of a transaction stays active until the
	// transaction commits. Defaults to 4.
	SpecDepth int
	// LockTableBits sizes the global lock table at 2^bits pairs.
	// Defaults to 20.
	LockTableBits int
	// CM selects the contention-management policy (internal/cm) that
	// resolves inter-thread write/write conflicts. nil means the
	// paper's task-aware policy over two-phase greedy.
	CM cm.Policy
	// Clock injects the commit clock (internal/clock); nil means a
	// fresh GV4. A replacement must keep GV4's contract (see
	// txrt.WithClock): a decorator counting calls into a GV4 does.
	Clock clock.Source
	// ReclaimRing bounds each task descriptor's quiescence ring of
	// retired write-lock entries (locktable.FreeRing): retirements past
	// the bound fall back to the garbage collector. 0 means unbounded —
	// the rings self-size to the pipeline depth and steady-state writer
	// transactions allocate nothing. 1 is the aggressive test
	// configuration: the single slot forces recycling to be exercised
	// on (almost) every commit instead of only under pipelined load.
	ReclaimRing int
	// ReclaimAudit installs the entry-reclamation invariant checker on
	// every thread: each entry reuse served from a quiescence ring
	// re-verifies that the committed frontier covers the entry's
	// retirement serial and that no task is mid-attempt from before the
	// retirement (see reclaim.go). Costs a slot scan per recycle; meant
	// for tests and stress soaks, not production runs.
	ReclaimAudit bool
	// MVDepth, when positive, retains the last MVDepth displaced
	// committed versions per word (txlog.VersionedStore) and enables the
	// wait-free read path for user-transactions submitted through
	// SubmitRO/AtomicRO. 0 (the default) disables multi-versioning.
	MVDepth int
	// Trace, when non-nil, attaches a flight recorder
	// (internal/txtrace): every task descriptor gets its own
	// single-owner event ring and records the task lifecycle (begin,
	// attempts, reads, writes, validation, CM decisions, aborts,
	// commits, entry reclaims). nil keeps tracing off — the default
	// no-op tracer compiles to a dead branch on the hot paths.
	Trace *txtrace.Recorder
	// Mode selects the execution rung (internal/mode): mode.Serial runs
	// every transaction under the runtime's gate. The zero value (and
	// the former adaptive policy) runs every transaction speculatively.
	Mode mode.Config
}

// shared maps the configuration onto the engine kit's option set, which
// fills the defaults the runtimes share (clock, lock-table size).
func (c Config) shared() txrt.Config {
	return txrt.Config{
		LockTableBits: c.LockTableBits,
		Clock:         c.Clock,
		CM:            c.CM,
		MVDepth:       c.MVDepth,
		Trace:         c.Trace,
		Mode:          c.Mode,
	}
}

// Runtime is one TLSTM instance: the engine kit's environment (word
// store, allocator, commit clock, contention manager, version store,
// serialized gate and Retry hub) plus the lock-pair table and the task
// scheduler's geometry. Independent Runtimes are fully isolated.
type Runtime struct {
	txrt.Env
	locks *locktable.Table

	// stats aggregates per-thread shards, merged at Sync boundaries
	// (see Thread.Sync); the hot path never touches it.
	stats txstats.Aggregate[Stats]

	specDepth    int
	reclaimRing  int
	reclaimAudit bool

	// threadIDs hands each Thread its identity.
	threadIDs atomic.Int32

	// threadsMu guards the registry of threads whose scheduler pools
	// Close drains.
	threadsMu sync.Mutex
	threads   []*Thread
}

// New creates a TLSTM runtime.
func New(cfg Config) *Runtime {
	if cfg.SpecDepth <= 0 {
		cfg.SpecDepth = 4
	}
	rt := &Runtime{
		specDepth:    cfg.SpecDepth,
		reclaimRing:  cfg.ReclaimRing,
		reclaimAudit: cfg.ReclaimAudit,
	}
	c := rt.Init("core", mem.NewStore(), cfg.shared(), cm.KindTaskAware)
	rt.locks = locktable.NewTable(c.LockTableBits)
	return rt
}

// SpecDepth reports the runtime's SPECDEPTH.
func (rt *Runtime) SpecDepth() int { return rt.specDepth }

// Close drains every thread's scheduler pool: armed tasks finish, the
// long-lived worker goroutines exit and are joined. Call it when the
// runtime is done — after every thread has Synced and no further
// Submits will happen; submitting after Close panics. Close is
// idempotent. A runtime that is simply garbage-collected without Close
// leaks nothing but the parked workers' stacks until process exit.
func (rt *Runtime) Close() {
	rt.threadsMu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.threadsMu.Unlock()
	for _, thr := range threads {
		thr.pool.Close()
	}
}

// Stats returns the runtime-global statistics aggregate: the sum of
// every per-thread shard merged so far (threads merge at Sync).
func (rt *Runtime) Stats() Stats { return rt.stats.Snapshot() }

// NewThread creates a user-thread. A Thread must be driven by exactly
// one goroutine (the "user-thread" itself), which also runs the first
// task of every Atomic; its other tasks run on the thread's scheduler
// pool: a ring of SPECDEPTH recycled task descriptors executed by up to
// SPECDEPTH long-lived workers (spawned lazily on first use, drained by
// Runtime.Close). Creating a thread allocates its rings once;
// steady-state submissions allocate nothing.
func (rt *Runtime) NewThread() *Thread {
	thr := &Thread{
		rt:     rt,
		depth:  rt.specDepth,
		slots:  make([]atomic.Pointer[Task], rt.specDepth),
		ring:   make([]*Task, rt.specDepth),
		txRing: make([]*txState, rt.specDepth),
	}
	thr.id = rt.threadIDs.Add(1) - 1
	id := thr.id
	for i := range thr.ring {
		t := &Task{thr: thr, locks: rt.locks, store: rt.Store, waitBeforeRestart: -1}
		// The kit half (CM probe, flight recorder) and the per-context
		// owner-header fields are wired once for the descriptor's whole
		// pooled lifetime; the per-transaction slots are re-bound by every
		// Submit (locktable.OwnerRef.BindTx).
		t.Init(&rt.Env, (*ring)(t), fmt.Sprintf("core-thr%d-slot%d", id, i))
		t.ownerRef.ThreadID = id
		t.ownerRef.CompletedTask = &thr.completedTask
		t.ownerRef.AbortInternal = &t.abortInternal
		// Entry-reclamation wiring: no live read log yet, ring bound
		// and audit hook fixed for the descriptor's whole lifetime.
		t.readHorizon.Store(horizonDead)
		t.writeLog.Ring().SetCap(rt.reclaimRing)
		if rt.reclaimAudit {
			t.writeLog.Ring().OnReclaim = thr.auditReclaim
		}
		if t.Traced {
			// Compose the reclaim hook: OnReclaim fires on the pop path
			// of the descriptor's own free ring, i.e. on the ring
			// owner's worker, so recording here stays single-owner.
			tr, audit := t.Tr, t.writeLog.Ring().OnReclaim
			t.writeLog.Ring().OnReclaim = func(at, epoch int64) {
				tr.Record(txtrace.KindReclaim, uint64(epoch), uint64(at), uint32(epoch))
				if audit != nil {
					audit(at, epoch)
				}
			}
		}
		thr.ring[i] = t
	}
	for i := range thr.txRing {
		thr.txRing[i] = &txState{thr: thr}
	}
	thr.solo = thr.newSolo()
	// Start in the ship state.
	thr.overlap.Store(shipOverlap)
	thr.fusedFns = make([]TaskFunc, 0, rt.specDepth)
	thr.pool = sched.New(rt.specDepth, sched.Pooled, thr.runSlot)
	thr.pool.SetLabel(fmt.Sprintf("tlstm-thr%d", id))
	rt.threadsMu.Lock()
	rt.threads = append(rt.threads, thr)
	rt.threadsMu.Unlock()
	return thr
}

// TaskFunc is the body of one speculative task. It receives the Task as
// its tm.Tx access handle. Bodies must be re-executable: the runtime may
// run them several times (speculation may fail), so they must not have
// external side effects. A body that panics while its speculative reads
// were inconsistent is restarted (inconsistent-read sandboxing, §3.2);
// a panic in a consistent state propagates as a genuine bug.
type TaskFunc func(t *Task)

// validateArity checks a Submit's task count against SPECDEPTH.
func (rt *Runtime) validateArity(n int) error {
	if n == 0 {
		return fmt.Errorf("core: transaction needs at least one task")
	}
	if n > rt.specDepth {
		return fmt.Errorf("core: transaction with %d tasks exceeds SPECDEPTH %d (all tasks of a transaction must be simultaneously active)", n, rt.specDepth)
	}
	return nil
}

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
	// Shards splits the lock table into that many contiguous shards
	// (power of two; 0 or 1 means flat). Sharding never changes which
	// pair an address resolves to — it only labels regions for the
	// conflict sketch and affinity placement.
	Shards int
	// Affinity enables the affinity placement policy: threads whose
	// conflict sketches concentrate on one shard are re-homed onto it
	// (sched.Affinity). Off means static round-robin homes.
	Affinity bool
	// PadLockTable spreads lock pairs one per cache line
	// (locktable.PadStride) to trade memory for false-sharing isolation.
	PadLockTable bool
	// PlainGreedyCM disables the task-aware inter-thread contention
	// policy and falls back to bare two-phase greedy. The paper argues
	// task-awareness is necessary to avoid inter-thread deadlocks and
	// favour transactions likely to finish (§3.2); this switch exists
	// for the ablation benchmark that quantifies it. It is shorthand
	// for CM: cm.New(cm.KindGreedy) and is ignored when CM is set.
	PlainGreedyCM bool
	// CM selects the contention-management policy (internal/cm) that
	// resolves inter-thread write/write conflicts. nil means the
	// paper's task-aware policy over two-phase greedy (or bare greedy
	// under PlainGreedyCM).
	CM cm.Policy
	// Policy selects what Submit does (internal/sched). Atomic always
	// runs a transaction's first task on the calling goroutine and the
	// speculative tail on the thread's workers; under sched.Pooled (the
	// zero value, default) Submit ships every task to a worker and
	// returns before the commit, so transactions pipeline; under
	// sched.Inline every Submit behaves like Atomic.
	Policy sched.Policy
	// Clock selects the commit-clock strategy (internal/clock): the
	// GV4 fetch-and-add clock (default), the GV5-style deferred clock,
	// or the sharded clock. nil means GV4.
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
	// Mode configures the execution-mode ladder (internal/mode): under
	// the adaptive policy each thread runs transactions speculatively
	// and falls back to a serialized global-lock
	// rung when its commit window turns abort-heavy, recovering after a
	// clean serialized window. The zero value keeps the ladder disarmed
	// (always speculative).
	Mode mode.Config
}

// shared maps the configuration onto the engine kit's option set, which
// fills the defaults the runtimes share (clock, lock-table size, mode).
func (c Config) shared() txrt.Config {
	if c.CM == nil && c.PlainGreedyCM {
		c.CM = cm.New(cm.KindGreedy)
	}
	return txrt.Config{
		LockTableBits: c.LockTableBits,
		Shards:        c.Shards,
		Affinity:      c.Affinity,
		Padded:        c.PadLockTable,
		Clock:         c.Clock,
		CM:            c.CM,
		MVDepth:       c.MVDepth,
		Trace:         c.Trace,
		Mode:          c.Mode,
	}
}

// Runtime is one TLSTM instance: the engine kit's environment (word
// store, allocator, commit clock, contention manager, version store,
// placement, mode gate and Retry hub — the gate serializes fallback
// entrants while speculative threads keep running, their conflict
// ride-out loops yielding to it) plus the lock-pair table and the task
// scheduler's geometry. Independent Runtimes are fully isolated.
type Runtime struct {
	txrt.Env
	locks *locktable.Table

	// stats aggregates per-thread shards, merged at Sync boundaries
	// (see Thread.Sync); the hot path never touches it.
	stats txstats.Aggregate[Stats, *Stats]

	specDepth    int
	policy       sched.Policy
	reclaimRing  int
	reclaimAudit bool
	nextThreadID atomic.Int32

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
		policy:       cfg.Policy,
		reclaimRing:  cfg.ReclaimRing,
		reclaimAudit: cfg.ReclaimAudit,
	}
	c := rt.Init("core", mem.NewStore(), cfg.shared(), cm.KindTaskAware)
	rt.locks = locktable.New(locktable.Config{Bits: c.LockTableBits, Shards: c.Shards, Padded: c.Padded})
	return rt
}

// SpecDepth reports the runtime's SPECDEPTH.
func (rt *Runtime) SpecDepth() int { return rt.specDepth }

// Policy reports the runtime's scheduler spawn policy.
func (rt *Runtime) Policy() sched.Policy { return rt.policy }

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
	id := rt.nextThreadID.Add(1) - 1
	thr := &Thread{
		rt:     rt,
		id:     id,
		depth:  rt.specDepth,
		slots:  make([]atomic.Pointer[Task], rt.specDepth),
		ring:   make([]*Task, rt.specDepth),
		txRing: make([]*txState, rt.specDepth),
		ctl:    mode.NewController(rt.ModeCfg),
	}
	thr.homeShard.Store(int32(rt.Placement.Home(int(id))))
	// Mode-ladder transitions happen on the submitting goroutine between
	// transactions, so they get their own ring.
	thr.tr, thr.traced = rt.NewTracer(fmt.Sprintf("core-thr%d-mode", id))
	for i := range thr.ring {
		t := &Task{thr: thr, locks: rt.locks, store: rt.Store, waitBeforeRestart: -1}
		// The per-context owner-header fields are wired once for the
		// descriptor's whole pooled lifetime; the per-transaction slots
		// are re-bound by every Submit (locktable.OwnerRef.BindTx).
		t.ownerRef.ThreadID = id
		t.ownerRef.CompletedTask = &thr.completedTask
		t.ownerRef.AbortInternal = &t.abortInternal
		t.cmSelf.Probe = &t.cmProbe
		// Entry-reclamation wiring: no live read log yet, ring bound
		// and audit hook fixed for the descriptor's whole lifetime.
		t.readHorizon.Store(horizonDead)
		t.writeLog.Ring().SetCap(rt.reclaimRing)
		if rt.reclaimAudit {
			t.writeLog.Ring().OnReclaim = thr.auditReclaim
		}
		t.tr, t.traced = rt.NewTracer(fmt.Sprintf("core-thr%d-slot%d", id, i))
		if t.traced {
			// Compose the reclaim hook: OnReclaim fires on the pop path
			// of the descriptor's own free ring, i.e. on the ring
			// owner's worker, so recording here stays single-owner.
			tr, audit := t.tr, t.writeLog.Ring().OnReclaim
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
	thr.pool = sched.New(rt.specDepth, rt.policy, thr.runSlot)
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

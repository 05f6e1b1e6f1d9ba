// Package tlstm is the public API of this repository: a Go
// implementation of TLSTM, the unified Software Transactional Memory +
// Software Thread-Level Speculation runtime of
//
//	Barreto, Dragojević, Ferreira, Filipe, Guerraoui:
//	"Unifying Thread-Level Speculation and Transactional Memory",
//	Middleware 2012, LNCS 7662.
//
// The model (paper §2): programs are hand-parallelized into
// user-threads whose critical sections are user-transactions; the
// runtime further decomposes each user-transaction into speculative
// tasks that execute out of order and commit in program order. Reads
// and writes of shared state go through word-addressed transactional
// memory; opacity is preserved across user-transactions even when their
// tasks run speculatively.
//
// # Quick start
//
//	rt := tlstm.New(tlstm.Config{SpecDepth: 3})
//	defer rt.Close()                 // drain the scheduler's worker pools
//	d := rt.Direct()                 // non-transactional setup handle
//	counter := d.Alloc(1)
//
//	thr := rt.NewThread()            // one user-thread
//	_ = thr.Atomic(                  // one user-transaction, two tasks
//		func(t *tlstm.Task) { t.Store(counter, t.Load(counter)+1) },
//		func(t *tlstm.Task) { t.Store(counter, t.Load(counter)+1) },
//	)
//	thr.Sync()
//
// Task bodies must be re-executable: speculation may run them several
// times, so they must not have external side effects.
//
// # Scheduling and worker lifecycle
//
// Atomic dispatches the way speculative multithreading is meant to: the
// transaction's program-order-first task — the least speculative one —
// runs on the calling goroutine, the one that holds its inputs, and only
// the speculative tail (tasks 2..n) is shipped to other goroutines.
// Those are not fresh goroutines either: each Thread owns a ring of
// SpecDepth recycled task descriptors and up to SpecDepth long-lived
// workers (internal/sched), spawned lazily the first time a slot is
// shipped and parked between tasks. A one-task Atomic therefore never
// touches a worker at all, an n-task one pays n−1 hand-offs and no
// wake-back, and at steady state nothing is allocated or spawned; Stats
// reports the totals as WorkersSpawned and DescriptorReuses.
//
// Submit is the pipelining entry: it ships every task to a worker and
// returns before the commit, so with SpecDepth larger than the task
// count the next transaction's tasks speculate while this one is still
// active. Under Config.Policy == SchedInline every Submit behaves like
// Atomic instead (at SpecDepth 1 such a runtime has no workers at all).
//
// The lifecycle is: NewThread creates the rings, Atomic/Submit dispatch
// onto them, Sync quiesces a thread (workers stay parked, ready for
// more), and Runtime.Close — after every thread has Synced — drains and
// joins all workers. Submitting after Close panics.
//
// A task body that panics on consistent reads is a bug in the body. In
// the first task of an Atomic the panic reaches the caller with its
// value intact; in any shipped task it crashes the process from the
// worker, like any crashed goroutine. Recovering it leaves that Thread
// wedged: the panicked transaction never commits, so nothing submitted
// on the thread after it does, and the tail tasks of a multi-task
// transaction stay parked on their workers (Close then does not return).
// The panicked task's writes are undone, its slot is retired and the
// serialized gate is released, so every other Thread runs on.
//
// # Waiting on transactions
//
// Submit returns a TxHandle by value: the (thread, commit-serial) pair
// of one submitted transaction. Wait blocks until that transaction has
// committed, through the thread's reusable completion latch rather
// than a per-transaction channel. Because commit serials are never
// reused, a handle stays meaningful after the transaction's recycled
// descriptors have moved on: Wait is idempotent, may be called from
// any goroutine, and at worst observes "already committed". Handles
// must not be used after Runtime.Close, and must not outlive their
// Thread.
//
// The package also exposes the SwissTM baseline (NewBaseline) that
// TLSTM extends, the transactional data structures used by the paper's
// benchmarks (red-black tree, sorted list, hash map), and the benchmark
// harness that regenerates the paper's figures (see cmd/tlstm-bench).
package tlstm

import (
	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/rbtree"
	"tlstm/internal/sched"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
	"tlstm/internal/tmhash"
	"tlstm/internal/tmlist"
)

// Core model types.
type (
	// Addr identifies one 64-bit word of transactional memory.
	Addr = tm.Addr
	// Tx is the runtime-agnostic access interface implemented by both
	// *Task (TLSTM) and *BaselineTx (SwissTM); data structures are
	// written against it.
	Tx = tm.Tx

	// Runtime is a TLSTM instance.
	Runtime = core.Runtime
	// Config configures a Runtime (SpecDepth is the paper's SPECDEPTH;
	// Shards/Affinity select the sharded lock-table geometry and the
	// conflict-sketch thread placement policy).
	Config = core.Config
	// Thread is a user-thread: a serial stream of user-transactions.
	Thread = core.Thread
	// Task is a speculative task handle; it implements Tx.
	Task = core.Task
	// TaskFunc is a speculative task body.
	TaskFunc = core.TaskFunc
	// TxHandle tracks a submitted user-transaction. It is a plain
	// value; see "Waiting on transactions" in the package docs for the
	// Wait contract.
	TxHandle = core.TxHandle
	// Stats aggregates per-thread execution statistics, including the
	// scheduler counters WorkersSpawned and DescriptorReuses, the
	// entry-reclamation counters EntryReclaims and HorizonStalls, and
	// the placement counters CrossShardConflicts and Remaps.
	Stats = core.Stats
	// SchedPolicy selects what Submit does; see Config.Policy and the
	// scheduling section of the package docs.
	SchedPolicy = sched.Policy

	// ClockSource is a commit-clock strategy for Config.Clock (and
	// NewBaselineWithClock): how the global commit timestamp is
	// maintained. See NewClock for the built-in strategies.
	ClockSource = clock.Source

	// CMPolicy is a contention-management policy for Config.CM (and
	// NewBaselineWithCM): how write/write conflicts between
	// transactions are resolved. See NewCM for the built-in policies.
	CMPolicy = cm.Policy

	// ModeConfig tunes the execution-mode ladder for Config.Mode: the
	// zero value keeps transactions always-speculative; Policy
	// ModeAdaptive arms per-thread fallback to a serialized global-lock
	// rung under sustained conflict (and recovery once the storm
	// passes). See ParseMode for the policy names.
	ModeConfig = mode.Config
	// ModePolicy selects the execution-mode ladder's behavior; see
	// ModeSpeculative, ModeAdaptive and ModeSerial.
	ModePolicy = mode.Policy

	// Direct is the non-transactional setup handle returned by
	// (*Runtime).Direct and (*BaselineRuntime).Direct; it implements Tx.
	Direct = mem.Direct
)

// NewClock builds one of the built-in commit-clock strategies by name:
//
//   - "gv4": the default fetch-and-add clock — dense unique timestamps,
//     one atomic RMW on a shared line per writer commit;
//   - "deferred": GV5-style — writers stamp without ticking, readers
//     advance the clock on observation; no commit-path RMW at the cost
//     of extra snapshot extensions;
//   - "sharded": per-context shards with read-side reconciliation;
//     commits touch only their own shard's cache line.
//
// Each Runtime needs its own ClockSource instance; do not share one
// across runtimes.
func NewClock(name string) (ClockSource, error) {
	k, err := clock.Parse(name)
	if err != nil {
		return nil, err
	}
	return clock.New(k), nil
}

// NewCM builds one of the built-in contention-management policies by
// name:
//
//   - "suicide": pure self-abort with a short grace wait (TL2's and the
//     write-through STM's historical behavior);
//   - "backoff": self-abort with randomized exponential backoff between
//     retries;
//   - "greedy": SwissTM's two-phase greedy manager (polite phase, then
//     seniority timestamps — older wins);
//   - "karma": work-based priority accumulated across restarts;
//   - "taskaware": the paper's Alg. 2 rule (abort the more speculative
//     transaction) over a greedy base — TLSTM's default;
//   - "default": each runtime's own default policy (returns nil).
//
// Each Runtime needs its own CMPolicy instance; do not share one
// across runtimes.
func NewCM(name string) (CMPolicy, error) {
	k, err := cm.Parse(name)
	if err != nil {
		return nil, err
	}
	return cm.New(k), nil
}

// NilAddr is the nil word address (a NULL pointer for word-encoded
// structures).
const NilAddr = tm.NilAddr

// Execution-mode policies for Config.Mode.Policy.
const (
	// ModeSpeculative runs every transaction optimistically (the
	// default; zero value).
	ModeSpeculative = mode.Speculative
	// ModeAdaptive starts speculative and falls back to the serialized
	// global-lock rung when the abort-rate window or a CM-defeat streak
	// says speculation is losing, recovering after a served residency.
	ModeAdaptive = mode.Adaptive
	// ModeSerial runs every transaction under the global gate
	// (measurement baseline for the ladder).
	ModeSerial = mode.Serial
)

// ParseMode parses an execution-mode policy name: "spec" (or ""),
// "adaptive" or "serial".
func ParseMode(name string) (ModePolicy, error) { return mode.Parse(name) }

// Scheduling policies for Config.Policy.
const (
	// SchedPooled makes Submit ship every task to the thread's ring of
	// long-lived worker goroutines and return before the commit (the
	// default; zero value). Atomic is unaffected: head on the caller,
	// speculative tail on the workers.
	SchedPooled = sched.Pooled
	// SchedInline makes every Submit behave like Atomic: synchronous,
	// first task on the submitting goroutine. No pipelining; at
	// SpecDepth 1, no workers at all.
	SchedInline = sched.Inline
)

// New creates a TLSTM runtime.
func New(cfg Config) *Runtime { return core.New(cfg) }

// Baseline SwissTM (the STM that TLSTM extends; used for comparisons).
type (
	// BaselineRuntime is a SwissTM instance.
	BaselineRuntime = stm.Runtime
	// BaselineTx is a SwissTM transaction handle; it implements Tx.
	BaselineTx = stm.Tx
	// BaselineStats accumulates SwissTM execution statistics.
	BaselineStats = stm.Stats
	// BaselineWorker is a per-thread SwissTM execution context: it owns
	// a pooled transaction descriptor (so steady-state transactions
	// allocate nothing) and an unshared statistics shard merged into
	// the runtime aggregate by Close. Create one per worker goroutine
	// with (*BaselineRuntime).NewWorker.
	BaselineWorker = stm.Worker
)

// NewBaseline creates a SwissTM runtime.
func NewBaseline() *BaselineRuntime { return stm.New() }

// NewBaselineWithClock creates a SwissTM runtime on the given
// commit-clock strategy (see NewClock).
func NewBaselineWithClock(src ClockSource) *BaselineRuntime {
	return stm.New(stm.WithClock(src))
}

// NewBaselineWithCM creates a SwissTM runtime on the given
// contention-management policy (see NewCM; nil keeps the two-phase
// greedy default).
func NewBaselineWithCM(pol CMPolicy) *BaselineRuntime {
	return stm.New(stm.WithCM(pol))
}

// Loop decomposition (paper §3.3 — spec-DOALL and spec-DOACROSS) is
// available on Thread:
//
//	thr.SpecDOALL(n, tasks, func(t *tlstm.Task, i int) { ... })
//	thr.SpecDOACROSS(n, func(t *tlstm.Task, i int) { ... })
//
// and flat transaction nesting (§2) via (*Task).Nest.

// Transactional data structures (usable on either runtime through Tx).
type (
	// RBTree is a transactional red-black tree (the paper's
	// microbenchmark structure).
	RBTree = rbtree.Tree
	// List is a transactional sorted linked list.
	List = tmlist.List
	// HashMap is a transactional fixed-bucket hash map.
	HashMap = tmhash.Map
)

// NewRBTree allocates an empty transactional red-black tree.
func NewRBTree(tx Tx) RBTree { return rbtree.New(tx) }

// NewList allocates an empty transactional sorted list.
func NewList(tx Tx) List { return tmlist.New(tx) }

// NewHashMap allocates an empty transactional hash map with the given
// bucket count.
func NewHashMap(tx Tx, buckets int) HashMap { return tmhash.New(tx, buckets) }

// Word-encoding helpers re-exported for transactional code.
var (
	// LoadInt64 reads a word as an int64.
	LoadInt64 = tm.LoadInt64
	// StoreInt64 writes an int64 word.
	StoreInt64 = tm.StoreInt64
	// LoadAddr reads a word-encoded pointer.
	LoadAddr = tm.LoadAddr
	// StoreAddr writes a word-encoded pointer.
	StoreAddr = tm.StoreAddr
)

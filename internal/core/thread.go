package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Thread is one user-thread: a serial stream of user-transactions, each
// decomposed into speculative tasks that the runtime executes out of
// order. All methods must be called from the single goroutine that owns
// the Thread.
//
// Scheduling (internal/sched): a Thread owns a ring of SPECDEPTH
// recycled task descriptors, a ring of SPECDEPTH recycled transaction
// descriptors, and a scheduler pool of SPECDEPTH long-lived worker
// goroutines (spawned lazily, drained by Runtime.Close). A submission
// writes into descriptors that have retired; it allocates nothing and
// spawns nothing at steady state. Atomic runs the transaction's first —
// least speculative — task on the calling goroutine and arms only the
// tail on workers; Submit arms every task and returns. A descriptor may
// thus be run by a worker in one incarnation and by the submitter in the
// next; it changes hands only across the scheduler's idle store /
// WaitIdle and Arm / armed-load edges. Serial numbers are never reused,
// so they double as the generation stamps that make waiting on recycled
// state ABA-safe: handles and completion waits are keyed on serials,
// never on descriptor identity.
type Thread struct {
	rt    *Runtime
	id    int32
	depth int

	// completedTask and completedWriter are the serials of the last
	// completed task and last completed writer task (paper §3.3, task
	// and user-thread state). Tasks complete strictly in serial order.
	completedTask   atomic.Int64
	completedWriter atomic.Int64

	// retireEpoch counts entry-retirement batches: finishCommit bumps
	// it once per committed transaction, and the abort sweeps
	// (unwindWrites, cleanupTx) once per retiring task's log — always
	// after the batch's entries are detached from their chains and
	// before they are queued for reuse. A task's attempt that began at epoch E can hold (as a
	// FirstPast marker) only entries retired with epoch > E — the
	// relation the reclamation audit checks on every recycle. Note the
	// epoch is deliberately distinct from the reuse gate: the gate keys
	// on the committed-transaction frontier (txDone), which is monotonic
	// where completedTask is not (transaction aborts lower it).
	retireEpoch atomic.Int64

	// slots is the owners[SPECDEPTH] array: slot serial%depth points to
	// the active task with that serial, nil when free. It mirrors the
	// scheduler's slot states for the abort machinery, which scans it to
	// signal tasks speculating beyond an aborting transaction.
	slots []atomic.Pointer[Task]

	// ring is the fixed set of recycled task descriptors: ring[i] is
	// the only *Task that ever occupies slots[i]. Descriptor i runs
	// serials i+1, i+1+depth, i+1+2·depth, … — its generation sequence.
	ring []*Task

	// txRing is the fixed set of recycled transaction descriptors.
	// At most SPECDEPTH user-transactions are in flight (every in-flight
	// transaction holds at least one task slot until it commits), so
	// Submit number k reuses txRing[k%depth] after waiting for its
	// previous occupant to fully retire (txState.live reaching zero).
	txRing []*txState
	txSeq  int64 // submitter-owned count of Submits so far

	// pool executes armed descriptors on the worker ring; txDone is the
	// reusable completion latch that replaced per-transaction done
	// channels: finishCommit publishes the transaction's commit serial,
	// TxHandle.Wait blocks until its serial is reached.
	pool   *sched.Pool
	txDone sched.Latch

	// chainMu serializes redo-log chain *removals* for this thread
	// (single-task rollback and transaction abort). Chain pushes stay
	// lock-free; only workers of this thread ever touch these chains,
	// so the mutex is never contended across threads.
	chainMu sync.Mutex

	nextSerial int64 // owned by the submitting goroutine

	// homeShard is the thread's current home lock-table shard under the
	// runtime's placement policy. Tasks read it from their workers while
	// finishCommit's remap step may rebind it, hence the atomic; the
	// remap bookkeeping below it (window, countdown) is written only by
	// finishCommit, serialized per thread like stats.
	homeShard    atomic.Int32
	remapWindow  txstats.Sketch
	txSinceRemap int

	// stats is the thread's unshared statistics shard (SNIPPETS-style
	// per-thread counters). Transaction counters are written only by
	// finishCommit, whose invocations are serialized per thread by the
	// commit order; scheduler counters (WorkersSpawned,
	// DescriptorReuses) are written only by the submitting goroutine.
	// The two writers touch disjoint fields, so the shard needs no
	// mutex; synced tracks what Sync has already merged into the
	// runtime-global aggregate.
	stats  Stats
	synced Stats

	// commitScratch holds the commit-time r-lock bookkeeping of this
	// thread's transaction commits. Commit-tasks are serialized per
	// thread (see stats above), so one scratch per thread suffices and
	// writer commits allocate nothing at steady state.
	commitScratch txlog.CommitScratch

	// ctl is the thread's execution-mode ladder controller
	// (Config.Mode), owned by the submitting goroutine. Its signals
	// arrive through the atomics below: finishCommit usually runs on a
	// worker, so it bumps ctlCommits/ctlAborts/ctlDefeats there, and
	// submit feeds the controller the deltas against the seen* snapshots
	// (submitter-owned) at each submission boundary.
	ctl                                  mode.Controller
	ctlCommits                           atomic.Uint64
	ctlAborts                            atomic.Uint64
	ctlDefeats                           atomic.Uint64
	seenCommits, seenAborts, seenDefeats uint64

	// tr records the thread-level ladder events (KindModeShift) on a
	// dedicated ring: mode shifts happen on the submitting goroutine
	// between transactions, so they must not share a task ring.
	tr     txtrace.Tracer
	traced bool
}

// ID reports the thread's identifier within its runtime.
func (thr *Thread) ID() int32 { return thr.id }

// runSlot is the pool's run hook: execute slot i's prepared descriptor.
func (thr *Thread) runSlot(i int) { thr.ring[i].run() }

// TxHandle tracks one submitted user-transaction. It is a plain value
// (no allocation): the pair (thread, commit serial) of the transaction
// it tracks. The zero TxHandle is invalid; use only handles returned by
// Submit.
type TxHandle struct {
	thr    *Thread
	commit int64
}

// Wait blocks until the user-transaction has committed.
//
// Contract: a handle names exactly one submitted transaction, through
// its never-reused commit serial, so Wait is idempotent — it may be
// called again (or from several goroutines) and returns immediately
// once the transaction has committed, even though the transaction's
// descriptor has long been recycled. Wait must not be used after
// Runtime.Close, and a handle must not outlive its Thread.
func (h TxHandle) Wait() { h.thr.txDone.Wait(h.commit) }

// Submit starts one user-transaction decomposed into the given tasks (in
// program order) and returns without waiting for it to commit: with
// SpecDepth larger than the task count, tasks of the next transaction
// speculate while this one is still active (paper §1: "TLSTM can even be
// more optimistic and speculatively execute future transactions").
//
// Submit recycles descriptors and dispatches every task to a long-lived
// worker; at steady state it performs no allocation and spawns no
// goroutine. Under the Inline scheduling policy Submit behaves like
// Atomic: the first task runs on the calling goroutine and Submit
// returns after the commit.
//
// Submit returns an error only for invalid arity; conflicts are handled
// internally by re-execution.
func (thr *Thread) Submit(fns ...TaskFunc) (TxHandle, error) {
	return thr.submit(false, thr.rt.policy == sched.Inline, fns...)
}

// SubmitRO is Submit for a user-transaction the caller declares
// read-only. With multi-versioning enabled (Config.MVDepth > 0) its
// tasks take the wait-free read path: every load resolves against the
// transaction's frozen snapshot (current memory if unchanged since, a
// retained version otherwise), nothing is appended to the read logs,
// and the commit needs no validation. A task that cannot be served at
// the snapshot — the version ring was overrun by more than MVDepth
// later commits, or the task observes speculative state of an earlier
// task of its own thread — aborts the transaction once and re-executes
// it on the ordinary validated path; a task that writes does the same.
// So declaring a transaction read-only is a hint, never a correctness
// obligation. Without multi-versioning SubmitRO is identical to Submit.
func (thr *Thread) SubmitRO(fns ...TaskFunc) (TxHandle, error) {
	return thr.submit(true, thr.rt.policy == sched.Inline, fns...)
}

// submit prepares one user-transaction's descriptors and dispatches its
// tasks. With headHere the program-order-first task runs on the calling
// goroutine once the speculative tail is armed, and submit returns after
// the transaction has committed; otherwise every task goes to a worker.
func (thr *Thread) submit(ro, headHere bool, fns ...TaskFunc) (TxHandle, error) {
	if err := thr.rt.validateArity(len(fns)); err != nil {
		return TxHandle{}, err
	}
	start := thr.nextSerial + 1
	commit := thr.nextSerial + int64(len(fns))
	thr.nextSerial = commit
	depth := int64(thr.depth)

	// Acquire this submission's transaction descriptor and wait for its
	// previous incarnation to retire: live reaches zero only after every
	// task of that transaction has returned, so the acquire-load below
	// orders all their accesses before our plain-field reset.
	if thr.txSeq >= depth {
		thr.stats.DescriptorReuses++
	}
	tx := thr.txRing[thr.txSeq%depth]
	thr.txSeq++
	for tx.live.Load() != 0 {
		// The previous incarnation is stuck re-aborting under a storm:
		// keep feeding the controller while we stall, so the fallback
		// decision below is made on the storm's live signals rather than
		// whatever was known when the stall started.
		if thr.ctl.Armed() {
			thr.pollMode()
		}
		runtime.Gosched()
	}

	// Execution-mode ladder (Config.Mode): fold the outcome signals
	// accumulated by finishCommit/cleanupTx since the last submission
	// into the controller, then pick this transaction's rung.
	if thr.ctl.Armed() {
		thr.pollMode()
	}
	serial := thr.ctl.Serial()

	tx.startSerial = start
	tx.commitSerial = commit
	tx.readOnly = ro
	tx.inSerial = serial
	tx.mvOff.Store(false)
	tx.snapshot.Store(mvSnapUnset)
	tx.gen = 0
	tx.acks = 0
	tx.participants = 0
	tx.cleaning = false
	tx.abortTx.Store(false)
	tx.greedTS.Store(0)
	tx.txAborts.Store(0)
	tx.taskRestarts.Store(0)
	for k := range tx.restartKind {
		tx.restartKind[k].Store(0)
	}
	tx.cmDefeats.Store(0)
	tx.armed.Store(0)
	tx.live.Store(int32(len(fns)))
	// The descriptor for serial s is always ring[s%depth], so the task
	// list is known before any slot frees up. Descriptors still running
	// a previous incarnation are not touched through this slice until
	// tx.armed covers them (see cleanupTx).
	tx.tasks = tx.tasks[:0]
	for i := range fns {
		tx.tasks = append(tx.tasks, thr.ring[(start+int64(i))%depth])
	}

	if serial {
		// Serialized-fallback rung: drain this thread's own in-flight
		// speculation first (no mixed-mode commits — every transaction
		// of this thread either finished before the gate was taken or
		// runs entirely under it), then hold the global gate across the
		// whole transaction. The tasks still run the unchanged
		// speculative protocol, so opacity is untouched; the gate only
		// removes the concurrent fallback entrants it would conflict
		// with, and other threads' optimists yield to Pending() instead
		// of riding conflicts out against us.
		for i := range thr.slots {
			thr.pool.WaitIdle(i)
		}
		thr.rt.Gate.Enter()
		// Deferred, so a body panic that surfaces in this goroutine (the
		// head task's body runs here) wedges only this thread's
		// transaction, not every later serialized transaction.
		defer thr.rt.Gate.Exit()
	}

	for i, fn := range fns {
		serial := start + int64(i)
		s := int(serial % depth)
		// A task may only start when the number of active tasks is
		// below SPECDEPTH, i.e. when the task that previously occupied
		// this slot has exited (paper §3.3, "Starting a task"). The
		// scheduler's idle state is the retirement signal; once it is
		// observed the submitter owns the descriptor.
		thr.pool.WaitIdle(s)
		if thr.pool.Generation(s) > 0 {
			// The scheduler's generation stamp is the source of truth
			// for descriptor reuse: any slot run before is recycled.
			thr.stats.DescriptorReuses++
		}
		t := thr.ring[s]
		t.tx = tx
		t.fn = fn
		t.serial.Store(serial)
		t.tryCommit = i == len(fns)-1
		t.waitBeforeRestart = -1
		t.backoff = 0
		t.workAcc = 0
		t.abortInternal.Store(false)
		t.readLog.Reset()
		t.writeLog.Reset()
		t.allocs = t.allocs[:0]
		t.frees = t.frees[:0]
		t.ownerRef.BindTx(start, &tx.abortTx, &tx.greedTS)
		// The task's CM identity follows the descriptor onto the new
		// transaction: priority slot, start serial, and the defeat
		// count accumulated by this transaction so far.
		t.cmSelf.Timestamp = &tx.greedTS
		t.cmSelf.Start = start
		thr.slots[s].Store(t)
		tx.armed.Add(1)
		if headHere && i == 0 {
			// The head is prepared first (cleanupTx sweeps the armed
			// prefix of tx.tasks) but dispatched last: arming the
			// speculative tail before running it overlaps the workers'
			// wake latency with the head's body.
			continue
		}
		if thr.pool.Arm(s) {
			thr.stats.WorkersSpawned++
		}
	}
	if headHere {
		// The WaitIdle above made this goroutine the head descriptor's
		// owner, so its logs, free ring and trace ring stay single-owner.
		// The head returns only after the txDone publish (finishCommit,
		// or the intermediate commit wait): no latch wait, no wake-back.
		thr.pool.RunHere(int(start % depth))
	} else if serial {
		thr.txDone.Wait(commit)
	}
	return TxHandle{thr: thr, commit: commit}, nil
}

// pollMode feeds the mode controller the commit/abort/defeat deltas
// since the last submission and folds any rung transition into the
// thread's stats shard (ModeFallbacks/ModeRecoveries are
// submitter-written fields, disjoint from finishCommit's — see the
// Stats contract above).
func (thr *Thread) pollMode() {
	c := thr.ctlCommits.Load()
	a := thr.ctlAborts.Load()
	d := thr.ctlDefeats.Load()
	dc, da, dd := c-thr.seenCommits, a-thr.seenAborts, d-thr.seenDefeats
	if dc == 0 && da == 0 && dd == 0 {
		return
	}
	thr.seenCommits, thr.seenAborts, thr.seenDefeats = c, a, d
	fell, recovered := thr.ctl.OnWindow(dc, da, dd)
	if fell {
		thr.stats.ModeFallbacks++
		if thr.traced {
			thr.tr.Record(txtrace.KindModeShift, thr.rt.Clk.Now(),
				uint64(mode.StateSerial), uint32(mode.StateSpec))
		}
	}
	if recovered {
		thr.stats.ModeRecoveries++
		if thr.traced {
			thr.tr.Record(txtrace.KindModeShift, thr.rt.Clk.Now(),
				uint64(mode.StateSpec), uint32(mode.StateSerial))
		}
	}
}

// Atomic runs one user-transaction decomposed into the given tasks and
// returns once it has committed. The first task — the transaction's
// least speculative one — executes on the calling goroutine; tasks 2..n
// speculate on the thread's workers. A one-task Atomic therefore costs
// no hand-off at all, and an n-task one n−1 hand-offs and no wake-back.
//
// A genuine body panic (consistent reads) in the first task reaches the
// Atomic caller and leaves the Thread wedged; in a later task it crashes
// the process from its worker (package tlstm, "Scheduling and worker
// lifecycle", says what a recovering caller is left with).
func (thr *Thread) Atomic(fns ...TaskFunc) error {
	_, err := thr.submit(false, true, fns...)
	return err
}

// AtomicRO is Atomic for a declared read-only transaction (see
// SubmitRO).
func (thr *Thread) AtomicRO(fns ...TaskFunc) error {
	_, err := thr.submit(true, true, fns...)
	return err
}

// Sync waits until every submitted user-transaction has committed and
// every task descriptor has retired to its slot, then merges the
// thread's statistics shard (the part not yet merged) into the
// runtime-global aggregate. The worker goroutines stay parked, ready
// for the next Submit; Runtime.Close drains them.
func (thr *Thread) Sync() {
	thr.txDone.Wait(thr.nextSerial)
	for i := range thr.slots {
		thr.pool.WaitIdle(i)
	}
	delta := thr.stats.Minus(thr.synced)
	if delta != (Stats{}) {
		thr.rt.stats.Merge(delta)
		thr.synced = thr.stats
	}
}

// Stats returns a snapshot of the thread's accumulated statistics. The
// shard is unsynchronized: call it only when the thread is quiescent —
// after Sync, or after Wait on the *last* submitted transaction (the
// fold happens before a handle unblocks). Calling it while a later
// transaction is still in flight is a data race.
func (thr *Thread) Stats() Stats {
	return thr.stats
}

// Stats aggregates per-thread execution statistics: the TLS-specific
// counters below plus the engine kit's shared Counters (txrt), which
// count the same things for every runtime — here per task where the
// flat runtimes count per transaction (set sizes, restart latency), and
// with Attempts counting whole-transaction abort rounds + 1.
type Stats struct {
	// TxCommitted counts committed user-transactions.
	TxCommitted uint64
	// TxAborted counts whole-transaction aborts (inter-thread conflicts
	// detected at commit, and contention-manager victims).
	TxAborted uint64
	// TaskRestarts counts single-task rollbacks (intra-thread WAR/WAW
	// conflicts, inconsistent speculative reads).
	TaskRestarts uint64
	// Restart cause breakdown (sums to TaskRestarts):
	//   RestartWAR     — validate-task failures (intra-thread write-after-read);
	//   RestartWAW     — write-lock evictions and writes past a running writer;
	//   RestartExtend  — failed snapshot extensions (inter-thread read invalidation);
	//   RestartCM      — inter-thread contention-manager defeats;
	//   RestartSandbox — panics converted to restarts by the
	//                    inconsistent-read sandbox;
	//   RestartRetry   — Tx.Retry unwinds (cond-var waits; the restart
	//                    re-executes the task after its predicate may
	//                    have changed).
	RestartWAR     uint64
	RestartWAW     uint64
	RestartExtend  uint64
	RestartCM      uint64
	RestartSandbox uint64
	RestartRetry   uint64
	// VirtualTime is the modeled parallel execution time in work units:
	// per transaction, tasks start together and task k finishes at
	// max(own work, finish of task k−1) + commit cost, reflecting the
	// serialized commit order (DESIGN.md §3, hardware substitution).
	VirtualTime uint64
	// WorkersSpawned counts scheduler worker goroutines created: at
	// most SPECDEPTH per thread over its whole lifetime, and zero per
	// task at steady state (the pooled scheduler's point).
	WorkersSpawned uint64
	// DescriptorReuses counts task and transaction descriptors served
	// from the recycled rings instead of freshly allocated — the
	// steady-state case for every Submit after warm-up.
	DescriptorReuses uint64

	// Counters: EntryReclaims is the steady-state case for every writer
	// task once its free ring has warmed (what makes the writer hot path
	// allocation-free); HorizonStalls counts requests that found only
	// entries still inside their quiescence window and had to allocate
	// fresh — each stall grows the ring, so stalls are self-limiting.
	txrt.Counters
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.TxCommitted += o.TxCommitted
	s.TxAborted += o.TxAborted
	s.TaskRestarts += o.TaskRestarts
	s.RestartWAR += o.RestartWAR
	s.RestartWAW += o.RestartWAW
	s.RestartExtend += o.RestartExtend
	s.RestartCM += o.RestartCM
	s.RestartSandbox += o.RestartSandbox
	s.RestartRetry += o.RestartRetry
	s.VirtualTime += o.VirtualTime
	s.WorkersSpawned += o.WorkersSpawned
	s.DescriptorReuses += o.DescriptorReuses
	s.Counters.Add(o.Counters)
}

// Minus returns the fieldwise difference s−o. It is only meaningful
// when o is an earlier snapshot of s (counters are monotonic), which is
// how Sync computes the not-yet-merged part of a thread's shard.
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		TxCommitted:      s.TxCommitted - o.TxCommitted,
		TxAborted:        s.TxAborted - o.TxAborted,
		TaskRestarts:     s.TaskRestarts - o.TaskRestarts,
		RestartWAR:       s.RestartWAR - o.RestartWAR,
		RestartWAW:       s.RestartWAW - o.RestartWAW,
		RestartExtend:    s.RestartExtend - o.RestartExtend,
		RestartCM:        s.RestartCM - o.RestartCM,
		RestartSandbox:   s.RestartSandbox - o.RestartSandbox,
		RestartRetry:     s.RestartRetry - o.RestartRetry,
		VirtualTime:      s.VirtualTime - o.VirtualTime,
		WorkersSpawned:   s.WorkersSpawned - o.WorkersSpawned,
		DescriptorReuses: s.DescriptorReuses - o.DescriptorReuses,
		Counters:         s.Counters.Minus(o.Counters),
	}
}

// txState is the shared state of one user-transaction. Descriptors are
// recycled through the thread's txRing: all plain fields are reset by
// Submit after the previous incarnation's live count reaches zero.
type txState struct {
	thr          *Thread
	startSerial  int64
	commitSerial int64
	tasks        []*Task

	// greedTS is the transaction's greedy CM timestamp, shared by all
	// tasks and persisting across transaction retries so long
	// transactions eventually win conflicts (no starvation).
	greedTS atomic.Uint64

	// abortTx is the abort-transaction signal (paper §3.2, "Transaction
	// abort"): set by the contention manager of another thread or by a
	// failed commit validation; observed by every task at safe points.
	abortTx atomic.Bool

	// Abort rendezvous state (guarded by mu): all participant tasks
	// park, the last to arrive unwinds the transaction's speculative
	// state, then everyone restarts. gen distinguishes abort rounds.
	mu           sync.Mutex
	gen          uint64
	acks         int32
	participants int32
	cleaning     bool

	txAborts     atomic.Uint64 // abort rounds; also drives restart backoff
	taskRestarts atomic.Uint64
	restartKind  [numRestartKinds]atomic.Uint64
	cmDefeats    atomic.Int32 // conflicts lost (two-phase greedy escalation)

	// armed counts tasks dispatched for this incarnation; the
	// submitter's increment is the release that publishes the freshly
	// reset descriptor, and cleanupTx bounds its write-log sweep by it
	// so it never touches a descriptor still retiring from a previous
	// transaction.
	armed atomic.Int32

	// live counts tasks of this incarnation that have not yet returned
	// to their slots. The decrement in Task.run is each task's final
	// access to this state; Submit reuses the descriptor only at zero.
	live atomic.Int32

	// inSerial marks a transaction running under the serialized-fallback
	// gate (submit holds the gate across its whole lifetime). Tasks read
	// it to exempt themselves from the gate-yield break in conflict
	// ride-out loops and to release the gate across a Retry park. Plain
	// field: written by submit before arming, read by this transaction's
	// own tasks after the arm that published the descriptor.
	inSerial bool

	// Multi-version read-only state (SubmitRO with Config.MVDepth > 0).
	// readOnly is the caller's declaration, set by submit. snapshot is
	// the transaction's frozen read timestamp, shared by all tasks: the
	// first task to begin CAS-publishes its clock sample and every other
	// task (and every re-begin after a single-task restart) adopts it,
	// because unlogged reads taken at one snapshot cannot be revalidated
	// at another. mvOff latches the fallback: once any task leaves the
	// wait-free path the whole transaction aborts and re-executes with
	// ordinary validated reads — mixing modes across tasks of one
	// transaction would leave the unlogged reads unvalidated at commit.
	// A whole-transaction abort clears snapshot (cleanupTx) so the
	// validated re-execution's successor transactions resample.
	readOnly bool
	mvOff    atomic.Bool
	snapshot atomic.Uint64
}

// mvSnapUnset marks a transaction whose frozen snapshot has not been
// sampled yet.
const mvSnapUnset = ^uint64(0)

// sharedSnapshot returns the transaction's frozen read snapshot,
// lazily initialized to fresh (the calling task's clock sample) if no
// task published one first.
func (tx *txState) sharedSnapshot(fresh uint64) uint64 {
	if s := tx.snapshot.Load(); s != mvSnapUnset {
		return s
	}
	if tx.snapshot.CompareAndSwap(mvSnapUnset, fresh) {
		return fresh
	}
	return tx.snapshot.Load()
}

package core

import (
	"math"
	"runtime"
	"sync/atomic"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txtrace"
	"tlstm/internal/xrand"
)

// Task is one speculative task (paper §2), implementing tm.Tx for its
// body. What used to be a SwissTM transaction is a task in TLSTM
// (§3.2), so the descriptor embeds the engine kit's txrt.Desc as stm.Tx
// does: work and probe counters, CM identity, multi-version counters,
// Alloc/Free, the Retry park and the stats fold, all per incarnation
// (reset by Submit, folded by finishCommit). What stays here is
// TLS-specific: the serial, the cross-thread owner header and abort
// signal, the redo-chain logs and the restart waits.
//
// Every attempt runs on the kit's driver and every rollback unwinds
// through Desc.Abort: a ring task's inside its transaction (run, over the
// ring Algorithm), the solo task's — the one an Atomic that does not
// ship runs on — as a whole SwissTM transaction (Desc.RunOn, solo.go).
//
// Task descriptors are recycled: descriptor i of a thread's ring runs
// every serial congruent to i+1 modulo SPECDEPTH, re-initialized in
// place by Submit once the previous incarnation has retired; it changes
// hands (worker or submitter) only across the scheduler's WaitIdle and
// Arm edges. Serials are never reused, which keeps identity checks on
// recycled descriptors sound: "this entry is mine" is (owner pointer,
// serial), never the owner pointer alone.
type Task struct {
	thr *Thread
	tx  *txState
	fn  TaskFunc

	// serial is the task's program-order serial for the current
	// incarnation. It is atomic because the abort machinery reads it
	// from other goroutines while the submitting goroutine may be
	// re-arming the descriptor; everyone else reads it after the arm
	// that published it.
	serial    atomic.Int64
	tryCommit bool
	solo      bool // the thread's solo task (runSolo), for its whole life

	// ownerRef is the stable cross-thread header installed in this
	// task's write-log entries; see locktable.OwnerRef. Its
	// per-transaction slots are re-bound by Submit at every dispatch.
	ownerRef locktable.OwnerRef

	// abortInternal is the aborted-internally signal (paper Alg. 2
	// line 47): set by a past task of the same thread that needs a
	// write lock we hold, or by the abort of an earlier transaction
	// whose speculative state we may have observed.
	abortInternal atomic.Bool

	// readHorizon is the thread's retirement epoch observed when the
	// current attempt began, or MaxInt64 while the task holds no live
	// read log (between attempts, and once the attempt is past its last
	// validate-task). It is the task's side of the entry-reclamation
	// invariant: an entry whose retirement epoch exceeds a live task's
	// readHorizon may still be held by that task as a FirstPast marker,
	// so it must not be recycled yet. The quiescence gate makes such a
	// recycle impossible; the ReclaimAudit checker reads this field from
	// other goroutines to prove it, hence the atomic.
	readHorizon atomic.Int64

	txrt.Desc

	// ---- per-incarnation state (reset by Submit and Begin) ----

	validTS    uint64
	lastWriter int64

	readLog  txlog.ReadLog
	writeLog txlog.WriteLog

	// jitterRng is the xorshift state behind the randomized relaunch
	// jitter of whole-transaction aborts (see preRestartWait); lazily
	// seeded, private to whichever goroutine is running the descriptor.
	jitterRng uint64

	// waitBeforeRestart, when ≥ 0, is a completed-task serial the next
	// attempt must wait for before re-executing. Set on intra-thread
	// WAW rollbacks: restarting immediately would let this task re-grab
	// the contended write lock before the past writer that evicted us,
	// livelocking the pair. Waiting until the conflicting past tasks
	// complete makes the conflicting suffix run serially — exactly the
	// behaviour the paper reports for write-heavy workloads ("these
	// transactions will execute almost serially", §4).
	waitBeforeRestart int64

	// backoff is the adaptive yield count applied before a restart that
	// followed an inter-thread contention-manager defeat.
	backoff int

	// locks and store are the runtime's lock table and word store, cached
	// so the access path resolves an address without walking thr.rt (the
	// thread's id is at hand in ownerRef.ThreadID). They sit last so the
	// fields other threads read (serial, ownerRef, abortInternal) keep
	// their cache lines: placed ahead of them they cost bank_hot 3.6 % of
	// its p50 latency over eight runs, here 0.5 %.
	locks *locktable.Table
	store *mem.Store
}

// Read entries are txlog.ReadEntry at lock-pair granularity (SwissTM's
// conflict granularity).
//
// Version is the committed version observed (txlog.NoVersion for reads served
// from a redo-log chain). FirstPast is the newest redo-chain entry from
// a past task of this thread at read time (nil if none): validateTask
// recomputes it and requires pointer identity, which subsumes the
// paper's serial-number checks of both the task-read-log (Alg. 1 lines
// 18–25) and the read-log (lines 26–31) and is additionally robust to a
// writer aborting and re-executing with the same serial. That identity
// argument is also why entry reuse here is quiescence-gated: a reused
// entry re-installed on the same pair while a stale reader still holds
// it as FirstPast would defeat the pointer-identity check (ABA).
// Entries therefore retire through the descriptor's free ring
// (locktable.FreeRing) stamped with a retirement serial, and are
// recycled only once the thread's committed-transaction frontier has
// passed it — by which point every task whose attempt could span the
// retirement has exited, so no stale FirstPast pointer survives. See
// reclaim_test.go for the machinery that proves this.

// txSelfAbortDefeats is the deadlock escape hatch for policies that
// only ever abort the requester: after this many contention-manager
// defeats, losing once more aborts the whole user-transaction instead
// of just the task, releasing every lock the transaction holds (a task
// restart alone cannot release locks its transaction's other tasks
// took, so a cross-thread lock cycle under a pure self-abort policy
// would otherwise never break).
const txSelfAbortDefeats = 8

// run executes one task incarnation, on its scheduler slot's worker or
// — the head of an Atomic — on the submitting goroutine: join the
// transaction, then run attempts on the kit's driver until the enclosing
// user-transaction commits, then retire the descriptor. The final
// tx.live decrement is this incarnation's last access to the
// transaction descriptor — Submit recycles it only at zero.
func (t *Task) run() {
	tx := t.tx
	// Retire via defer so a genuine-bug panic propagating out of an
	// attempt still leaves the descriptor machinery consistent: on a
	// worker the panic then crashes the process (as the old
	// goroutine-per-task spawn did), but a shipped head's surfaces in
	// the submitting goroutine, where application code may recover — the
	// runtime must not corrupt its rings (the transaction wedges loudly).
	defer func() {
		t.thr.slots[t.serial.Load()%int64(t.thr.depth)].Store(nil)
		tx.live.Add(-1)
	}()
	if t.Traced {
		t.Tr.Record(txtrace.KindTxBegin, t.thr.rt.Clk.Now(), uint64(t.serial.Load()), 0)
	}
	t.joinTx()
	t.Attempts()
}

// joinTx registers the task with its transaction's abort rendezvous
// before it touches any shared state; if an abort round is in progress
// the task waits it out (it has nothing to clean yet).
func (t *Task) joinTx() {
	tx := t.tx
	tx.mu.Lock()
	tx.participants++
	tx.mu.Unlock()
	if tx.abortTx.Load() {
		t.rendezvous(false)
	}
}

// ring is the txrt.Algorithm of a thread's ring tasks: one task's
// attempts inside its transaction, which closes at the commit task's
// finishCommit. It is Speculative: a task reads its past tasks'
// speculative writes, so a panic may be an inconsistent read's.
type ring Task

var _ txrt.Speculative = (*ring)(nil)

// preRestartWait delays a restart while the condition that rolled us
// back clears (see waitBeforeRestart and backoff). The wait is charged
// WaitRoundCost per spin round: it is real serialization — the past
// writer we conflicted with is executing during it — and it is exactly
// what makes the paper's write traversals "execute almost serially".
func (t *Task) preRestartWait() {
	if w := t.waitBeforeRestart; w >= 0 {
		for t.thr.completedTask.Load() < w {
			if t.tx.abortTx.Load() {
				t.abortRound(txtrace.AbortSignal)
			}
			t.Work += txrt.WaitRoundCost
			runtime.Gosched()
		}
		t.waitBeforeRestart = -1
	}
	for i := 0; i < t.backoff; i++ {
		runtime.Gosched()
	}
	// Whole-transaction aborts back off per policy: repeated
	// inter-thread defeats or failed commit validations mean the
	// conflict window is being re-entered too eagerly. Routing this
	// through OnAbort matters beyond style — a policy whose conflicts
	// can kill both sides of a lock cycle depends on randomized spacing
	// here, or the mutually-killed transactions relaunch in lockstep and
	// livelock.
	if n := t.tx.txAborts.Load(); n > 0 {
		t.CMSelf.Aborts = n
		y := cm.AbortBackoff(t.thr.rt.CM, &t.CMSelf)
		// Randomized relaunch jitter on top of whatever the policy
		// returned. The txSelfAbortDefeats escalation can kill BOTH
		// sides of a cross-thread lock cycle, and under a policy with
		// deterministic backoff (suicide) the two victims relaunch in
		// lockstep and can re-kill each other indefinitely; the policies
		// with randomized spacing never needed this, and a few extra
		// yields on a whole-transaction abort are noise to them.
		y += int(xrand.Next(&t.jitterRng) & 63)
		for i := 0; i < y; i++ {
			runtime.Gosched()
		}
	}
}

// Begin implements txrt.Algorithm: the restart waits (preRestartWait),
// then the paper's start() (Alg. 1 lines 1–4) for one attempt.
func (r *ring) Begin() uint64 {
	t := (*Task)(r)
	t.preRestartWait()
	// Open the read-log liveness window before anything is read: any
	// entry retired from here on carries a retirement epoch above this
	// snapshot, so the reclamation audit knows this attempt may hold it.
	t.readHorizon.Store(t.thr.retireEpoch.Load())
	t.abortInternal.Store(false)
	t.lastWriter = t.thr.completedWriter.Load()
	t.validTS = t.thr.rt.Clk.Now()
	t.MVOn = false
	if tx := t.tx; tx.readOnly && t.thr.rt.MV != nil && !tx.mvOff.Load() {
		// Wait-free read-only mode: every task of the transaction reads
		// at one frozen snapshot (the first beginner's clock sample), so
		// the commit-time read-only fast path needs no validation even
		// though nothing was logged. The snapshot must serialize after
		// the thread's own program-order predecessors: a pipelined task
		// can begin before an earlier transaction of this thread
		// commits, and a snapshot frozen then would read the pre-state
		// and commit it unvalidated. Park on the committed frontier
		// first — a wait on our own pipeline only; the path stays
		// wait-free with respect to other threads' writers.
		for t.thr.txDone.Seq() < tx.startSerial-1 {
			t.checkSignals()
			runtime.Gosched()
		}
		t.validTS = tx.sharedSnapshot(t.thr.rt.Clk.Now())
		t.MVOn = true
	}
	t.readLog.Reset()
	t.writeLog.Reset()
	return t.validTS
}

// Exec implements txrt.Algorithm: the body, then the commit step.
func (r *ring) Exec() {
	t := (*Task)(r)
	t.fn(t)
	t.commitStep()
}

// Release implements txrt.Algorithm: unlink and retire the attempt's
// entries (a transaction abort's sweep may have done it) and close the
// read log's liveness window: the log is dead (Sandboxed has run), so the
// reclamation audit stops charging the attempt.
func (r *ring) Release() {
	(*Task)(r).unwindWrites()
	r.readHorizon.Store(horizonDead)
}

// SetSizes implements txrt.Algorithm (logged reads / locked pairs).
func (r *ring) SetSizes() (reads, writes int) { return r.readLog.Len(), r.writeLog.Len() }

// Sandboxed implements txrt.Speculative: a panic out of an attempt whose
// reads are no longer consistent is §3.2's sandboxing case ("Inconsistent
// reads"), counted and restarted; any other is a genuine bug.
func (r *ring) Sandboxed() bool {
	t := (*Task)(r)
	if t.consistent() {
		return false
	}
	t.noteRestart(restartSandbox)
	return true
}

// horizonDead is the readHorizon value of a task holding no live read
// log: above every retirement epoch, so the reclamation audit never
// charges it.
const horizonDead = int64(math.MaxInt64)

// consistent reports whether the attempt's reads are still valid (used
// to distinguish speculation-induced panics from real bugs). Same rule
// as txrt.Desc.Extend: a moved version on a pair we write-lock still
// means the read predates a conflicting commit, so the attempt is a
// zombie — classify it as inconsistent and restart rather than surface
// its panic.
func (t *Task) consistent() bool { return t.validateTask() && t.readLog.Unchanged() }

// restartKind classifies single-task rollbacks for Stats.
type restartKind int

const (
	restartWAR restartKind = iota
	restartWAW
	restartExtend
	restartCM
	restartSandbox
	restartRetry
	numRestartKinds
)

// restartAbortCode maps single-task rollbacks onto the txtrace
// abort-reason codes (WAR restarts, like the driver's sandboxed ones, are
// speculation-specific; the fine-grained breakdown lives in Stats).
var restartAbortCode = [numRestartKinds]uint32{
	restartWAR:    txtrace.AbortSpec,
	restartWAW:    txtrace.AbortConflict,
	restartExtend: txtrace.AbortExtend,
	restartCM:     txtrace.AbortCM,
	restartRetry:  txtrace.AbortRetry,
}

// rollbackTask aborts just this task and restarts it, recording why.
func (t *Task) rollbackTask(kind restartKind) {
	t.noteRestart(kind)
	t.Abort(t.validTS, restartAbortCode[kind])
}

// noteRestart counts a single-task rollback of kind.
func (t *Task) noteRestart(kind restartKind) {
	t.tx.taskRestarts.Add(1)
	t.tx.restartKind[kind].Add(1)
}

// checkSignals honours both abort signals at a safe point (every loop in
// Alg. 1–3 polls them).
func (t *Task) checkSignals() {
	if t.abortInternal.Load() {
		// A past task evicted us from a write lock (or an earlier
		// transaction we may have observed aborted): let every past
		// task complete before re-running, or we would race it for the
		// same lock again.
		t.waitBeforeRestart = t.serial.Load() - 1
		t.rollbackTask(restartWAW)
	}
	if t.tx.abortTx.Load() {
		t.abortRound(txtrace.AbortSignal)
	}
}

// firstPastOf walks a chain for the newest entry written by a *past*
// task of this thread (serial strictly below ours; our own and future
// entries are skipped). It returns nil when the pair is unlocked or held
// by another thread.
func (t *Task) firstPastOf(head *locktable.WEntry) *locktable.WEntry {
	if head == nil || head.Owner.ThreadID != t.thr.ID() {
		return nil
	}
	ser := t.serial.Load()
	for e := head; e != nil; e = e.Prev.Load() {
		if e.Serial < ser {
			return e
		}
	}
	return nil
}

// Load implements tm.Tx: the read-word procedure of Alg. 1. The common
// case — the pair unlocked or held by another user-thread, no abort
// signal raised, a stable version the snapshot already covers — is
// SwissTM's committed read (Alg. 1 line 16) and is served here with one
// signal poll and no call. Everything else goes to loadSlow, which also
// handles that case: the lane is a shortcut into it, not a second copy of
// the extension or chain logic.
func (t *Task) Load(a tm.Addr) uint64 {
	if t.MVOn {
		return t.loadMV(a)
	}
	t.Tick(1)
	p := t.locks.For(a)
	if head := p.W.Load(); (head == nil || head.Owner.ThreadID != t.ownerRef.ThreadID) &&
		!t.abortInternal.Load() && !t.tx.abortTx.Load() {
		// Locked is above every snapshot, so one compare covers both.
		if v1 := p.R.Load(); v1 <= t.validTS {
			val := t.store.LoadWord(a)
			if p.R.Load() == v1 {
				t.readLog.Append(p, v1, nil)
				if t.Traced {
					t.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
				}
				return val
			}
		}
	}
	return t.loadSlow(p, a)
}

// loadSlow is the full read-word procedure: own-thread redo chains, a
// pair a committer holds Locked, a version ahead of the snapshot, raised
// abort signals.
func (t *Task) loadSlow(p *locktable.Pair, a tm.Addr) uint64 {
	ser := t.serial.Load()
	var firstPast *locktable.WEntry // newest past entry the read records
	for {
		t.checkSignals()
		head := p.W.Load()
		if head == nil || head.Owner.ThreadID != t.thr.ID() {
			// Unlocked or locked by another user-thread: read the
			// committed value from memory (redo logging keeps it
			// intact until the writer commits) — Alg. 1 line 16.
			break
		}

		// Locked by my user-thread: locate my own buffered value or the
		// most recent speculative value from my past (Alg. 1 lines 8–15).
		e := head
		for e != nil && e.Serial >= ser {
			if e.Serial == ser && e.Owner == &t.ownerRef {
				if v, hit := e.Lookup(a); hit {
					return v // read-own-write, no validation needed
				}
			}
			e = e.Prev.Load()
		}
		if e == nil {
			// Only our own / future entries, none covering a: the
			// committed value still stands.
			break
		}

		// Wait until the past writer completes; reading from running
		// tasks would force validating intermediate values (§3.3).
		t.waitCompleted(e.Serial)

		// WAR validation gate (Alg. 1 line 13) — before the re-resolve,
		// not after it: the gate folds every writer completed so far into
		// lastWriter, and this read is not in the log yet. A past writer
		// that stacked here and completed between a re-resolve and the
		// gate's sample would never be compared against this read, and
		// the stale value would survive every later validation.
		t.maybeValidate()
		// Re-resolve: a running past task may have pushed a newer entry
		// (or an abort may have unwound the chain) while we waited. A
		// writer stacking after this check completes after the gate's
		// sample, so a later gate sees it.
		if t.firstPastOf(p.W.Load()) != e {
			continue
		}

		// The chain below e holds strictly older, completed entries; the
		// newest one covering a supplies the value. If none covers a,
		// the committed value stands (and its version must be recorded,
		// with e as the WAR marker, for inter-thread validation).
		for c := e; c != nil; c = c.Prev.Load() {
			if v, hit := c.Lookup(a); hit {
				t.readLog.Append(p, txlog.NoVersion, e)
				t.Work++
				if t.Traced {
					// Aux 2: speculative read served from a past task's
					// redo chain (no committed version to carry).
					t.Tr.Record(txtrace.KindRead, 0, uint64(a), 2)
				}
				return v
			}
		}
		firstPast = e
		break
	}
	val, ok := t.ReadCommitted(p, a, &t.readLog, &t.validTS, firstPast)
	if !ok {
		t.rollbackTask(restartExtend)
	}
	return val
}

// waitCompleted blocks until the thread's completed-task counter reaches
// serial, honouring abort signals (which panic out via checkSignals).
// The wait is charged WaitRoundCost per round: reading a running past
// writer's location serializes this task behind it (paper §3.3,
// "Reading"), and that serialization must appear in virtual time.
func (t *Task) waitCompleted(serial int64) {
	for t.thr.completedTask.Load() < serial {
		t.checkSignals()
		t.Work += txrt.WaitRoundCost
		runtime.Gosched()
	}
}

// maybeValidate runs validate-task when a writer task completed since we
// last validated (the check the paper performs at read, write and commit
// time).
func (t *Task) maybeValidate() {
	cw := t.thr.completedWriter.Load()
	if cw == t.lastWriter {
		return
	}
	if !t.validateTask() {
		t.rollbackTask(restartWAR)
	}
	t.lastWriter = cw
}

// loadMV is the wait-free read path of a declared read-only
// transaction with multi-versioning on: txrt.Desc.ReadMV at the
// transaction's frozen snapshot. The snapshot never moves, so nothing
// is logged, validated or extended; the only exits besides a value are
// the whole-transaction fallback (mvFallback) and the abort signals
// every read path polls.
func (t *Task) loadMV(a tm.Addr) uint64 {
	t.Tick(1)
	p := t.thr.rt.locks.For(a)
	for {
		t.checkSignals()
		if t.firstPastOf(p.W.Load()) != nil {
			// A past task of this thread holds speculative state on the
			// pair: in program order its value precedes us but in commit
			// order it lies after the frozen snapshot, so the snapshot
			// cannot serve this read. Re-execute validated, where the
			// redo chains are read through.
			t.mvFallback()
		}
		val, seen, ok := t.ReadMV(&p.R, a, t.validTS)
		if ok {
			return val
		}
		if seen != locktable.Locked {
			// Committed past the snapshot and the ring holds no version
			// old enough: overrun by more than MVDepth later commits.
			t.mvFallback()
		}
		// A commit holds the r-lock for a bounded publish window; it
		// may hand the version store exactly the displaced value the
		// snapshot needs. Waiting on it costs parallel time.
		t.Work += txrt.WaitRoundCost
		runtime.Gosched()
	}
}

// mvFallback abandons the wait-free path: latch the fallback for the
// whole user-transaction and abort it, so the re-execution runs every
// task with ordinary validated reads. The abort must be
// transaction-wide — the attempt's multi-version reads were never
// logged, so no per-task restart could revalidate them against a moved
// snapshot.
func (t *Task) mvFallback() {
	if t.solo {
		// The kit's exit: the driver re-runs the transaction validated.
		t.tx.txAborts.Add(1)
		t.ExitMV(t.validTS, txtrace.AbortSpec)
	}
	t.MVMisses++
	t.tx.mvOff.Store(true)
	t.abortOwnTx(txtrace.AbortSpec)
}

// validateTask is Alg. 1 lines 17–31 at pair granularity: for every
// recorded read, the newest past-task entry of the pair's redo chain
// must be exactly the one observed at read time (nil included). Any new
// past writer, any unwound writer, and any writer whose transaction
// committed (chain unlocked) invalidates the read.
func (t *Task) validateTask() bool {
	entries := t.readLog.Entries()
	for i, re := range entries {
		if i%txrt.ValidationStride == 0 {
			t.Work++
		}
		if t.firstPastOf(re.Pair.W.Load()) != re.FirstPast {
			t.ValidatedEntries += uint64(i + 1)
			return false
		}
	}
	t.ValidatedEntries += uint64(len(entries))
	return true
}

// Store implements tm.Tx: the write-word procedure of Alg. 2.
func (t *Task) Store(a tm.Addr, v uint64) {
	if t.MVOn {
		// A write under a read-only declaration: the declaration was
		// wrong (or conservative). Re-execute the transaction validated;
		// correctness never depended on the caller's hint.
		t.mvFallback()
	}
	t.Tick(2)
	p := t.locks.For(a)
	ser := t.serial.Load()
	waited := 0
	for {
		t.checkSignals()
		e := p.W.Load()
		if e == nil {
			// Unlocked: install an entry, recycled from this
			// descriptor's free ring when one has quiesced.
			// validateTask depends on entry pointer identity (see the
			// read-entry comment above), so reuse is gated on the
			// thread's committed frontier: an entry is served only
			// once every task that could hold its pointer has exited
			// (txlog.WriteLog.NewEntryAt).
			ne := t.newEntry(p, a, v, ser)
			if p.W.CompareAndSwap(nil, ne) {
				t.writeLog.Append(ne)
				if t.Traced {
					t.Tr.Record(txtrace.KindWrite, t.validTS, uint64(a), 0)
				}
				break
			}
			t.writeLog.Release(ne) // never published; immediately reusable
			continue
		}
		if e.Owner == &t.ownerRef && e.Serial == ser {
			// Already ours: update the buffered value (Alg. 2 line 37).
			e.Update(a, v)
			return
		}
		if e.Owner.ThreadID != t.thr.ID() {
			// Write-locked by another user-thread: inter-thread
			// contention management (Alg. 2 lines 41–43, 54–64 under the
			// default task-aware policy). If we lose, this task rolls
			// back (Alg. 2 line 42); if the owner loses, its whole
			// user-transaction is signalled to abort and we wait for
			// the lock to be released.
			t.CMSelf.Defeats = int(t.tx.cmDefeats.Load())
			t.CMSelf.Completed = t.thr.completedTask.Load()
			if t.Contend(t.validTS, a, cm.PointEncounter, t.writeLog.Len(), waited, e.Owner) {
				defeats := t.tx.cmDefeats.Add(1)
				if t.solo {
					// The restart releases every lock the transaction
					// holds, and the driver backs off per policy.
					t.CMSelf.Defeats = int(defeats)
					t.rollbackTask(restartCM)
				}
				t.CMSelf.Aborts = uint64(defeats)
				t.backoff = cm.AbortBackoff(t.thr.rt.CM, &t.CMSelf)
				// A task-level restart does not release the locks held
				// by this transaction's OTHER tasks, so a policy that
				// never aborts owners (suicide, backoff) would leave a
				// cross-thread lock cycle standing forever — the §3.2
				// inter-thread deadlock. Every txSelfAbortDefeats-th
				// defeat therefore escalates to a whole-transaction
				// self-abort, releasing everything the transaction
				// holds; policies that escalate to AbortOwner (greedy,
				// task-aware) break cycles long before this
				// bound is reached.
				if defeats%txSelfAbortDefeats == 0 {
					t.abortOwnTx(txtrace.AbortCM)
				}
				t.rollbackTask(restartCM)
			}
			// AbortOwner and Wait both ride the conflict out for a
			// round; waiting on another thread's lock costs parallel
			// time (about WaitRoundCost of owner progress per round).
			waited++
			t.Work += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		if e.Serial > ser {
			// A future task of my thread holds the lock: it is the one
			// in the wrong in program order; signal it to abort and
			// wait for the chain to unwind (Alg. 2 lines 46–48).
			e.Owner.AbortInternal.Store(true)
			t.Work += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		// A past task holds the lock. If it is still running this is a
		// WAW conflict against program order: we (the future writer)
		// abort and re-run once the writer has completed (Alg. 2 lines
		// 44–45). If it completed, we stack a new entry on the
		// location's redo log (lines 49–51).
		if t.thr.completedTask.Load() < e.Serial {
			t.waitBeforeRestart = e.Serial
			t.rollbackTask(restartWAW)
		}
		ne := t.newEntry(p, a, v, ser)
		ne.Prev.Store(e)
		if p.W.CompareAndSwap(e, ne) {
			t.writeLog.Append(ne)
			if t.Traced {
				t.Tr.Record(txtrace.KindWrite, t.validTS, uint64(a), 0)
			}
			break
		}
		t.writeLog.Release(ne) // never published; immediately reusable
	}
	// Post-write checks (Alg. 2 lines 52–53).
	if !t.CoverWrite(p, &t.readLog, &t.validTS) {
		t.rollbackTask(restartExtend)
	}
	t.maybeValidate()
}

// newEntry produces a write-lock entry for installation, recycling a
// retired one when the thread's committed-transaction frontier
// (sched.Latch txDone — the horizon every reuse is gated on) has passed
// its retirement serial. The solo task's entries need no horizon: no
// other task of the thread runs beside it to hold one.
func (t *Task) newEntry(p *locktable.Pair, a tm.Addr, v uint64, ser int64) *locktable.WEntry {
	if t.solo {
		return t.writeLog.NewEntry(&t.ownerRef, ser, p, a, v)
	}
	return t.writeLog.NewEntryAt(&t.ownerRef, ser, p, a, v, t.thr.txDone.Seq())
}

// Retry implements the transactional cond-var wait: the caller's
// predicate over its reads failed, so abandon the attempt and block
// until a conflicting commit changes something the attempt read
// (txrt.Desc.ArmPark; the park runs before the next attempt, after this
// one's rollback released its locks). Only a single-task transaction
// (a fused Atomic is one) may park: a parked intermediate task would
// strand the locks its sibling tasks hold, so multi-task transactions
// respin with exponential backoff instead, re-checking the predicate
// each round.
func (t *Task) Retry() {
	if t.MVOn {
		// Wait-free reads are unlogged: there is no read set to
		// fingerprint or revalidate. Re-execute validated.
		t.mvFallback()
	}
	tx := t.tx
	if tx.startSerial != tx.commitSerial {
		t.backoff = min(max(t.backoff*retrySpinFactor, retrySpinInit), retrySpinCell)
		t.rollbackTask(restartRetry)
	}
	t.ArmParkReads(&t.readLog)
	t.rollbackTask(restartRetry)
}

// A multi-task Retry respins with exponential backoff: the first respin
// yields retrySpinInit times, each next one retrySpinFactor times more,
// up to retrySpinCell.
const (
	retrySpinInit   = 16
	retrySpinFactor = 2
	retrySpinCell   = 1024
)

// Serial reports the task's program-order serial within its user-thread
// (tests and instrumentation).
func (t *Task) Serial() int64 { return t.serial.Load() }

var _ tm.Tx = (*Task)(nil)

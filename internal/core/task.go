package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
	"tlstm/internal/xrand"
)

// noVersion marks read-log entries whose value came from a speculative
// (intra-thread) source rather than committed state: they carry no
// committed version to validate inter-thread; their validity is tracked
// purely by redo-chain identity (validateTask).
const noVersion = txlog.NoVersion

// Task is one speculative task (paper §2): the unit of speculative
// execution, implementing tm.Tx for its body. What used to be a SwissTM
// transaction is a task in TLSTM (§3.2).
//
// Task descriptors are recycled: descriptor i of a thread's ring runs
// every serial congruent to i+1 modulo SPECDEPTH, re-initialized in
// place by Submit once the previous incarnation has retired. Serials
// are never reused, which is what keeps identity checks on recycled
// descriptors sound: "this entry is mine" is (owner pointer, serial),
// never the owner pointer alone.
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

	// ---- per-incarnation state (reset by Submit and begin) ----

	validTS    uint64
	lastWriter int64

	readLog  txlog.ReadLog
	writeLog txlog.WriteLog

	allocs []tm.Addr
	frees  []tm.Addr

	workAcc uint64 // work units across all attempts (virtual-time model)

	// extends counts successful snapshot extensions and clkProbe
	// accumulates clock CAS retries (both across all attempts of the
	// current incarnation, like workAcc); finishCommit folds them into
	// the thread's stats shard and clears them under the same
	// serialization argument that protects workAcc. The probe's shard
	// pinning (sharded clock strategy) survives folding, so a recycled
	// descriptor keeps its shard affinity.
	extends  uint64
	clkProbe clock.Probe

	// mvActive marks an attempt on the multi-version wait-free read
	// path (declared read-only transaction, multi-versioning on, no
	// fallback latched yet); begin recomputes it per attempt. mvReads
	// and mvMisses accumulate across attempts of the incarnation and
	// fold into the thread's shard in finishCommit, like extends.
	mvActive bool
	mvReads  uint64
	mvMisses uint64

	// sketch histograms this incarnation's conflicts by lock-table
	// shard and crossShard counts those outside the thread's home shard
	// at conflict time; both accumulate across attempts and fold into
	// the thread's shard in finishCommit, like mvReads.
	sketch     txstats.Sketch
	crossShard uint64

	// cmSelf is the task's contention-management identity (its
	// situational fields are refreshed in place before every Resolve,
	// so the conflict path never allocates); cmProbe carries the
	// decision counters and backoff/karma state, folded into the
	// thread's stats shard by finishCommit like clkProbe.
	cmSelf  cm.Self
	cmProbe cm.Probe

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

	// tr is this descriptor's flight recorder (txtrace.Nop unless the
	// runtime was configured with a Trace recorder); traced caches
	// tr.Enabled() so the hot paths pay one predictable branch. One
	// incarnation runs on the slot's worker, the next perhaps on the
	// submitting goroutine (the head of an Atomic); the ring, like the
	// logs and the free ring, stays single-owner because a descriptor
	// changes hands only across the scheduler's WaitIdle and Arm edges.
	tr     txtrace.Tracer
	traced bool

	// attemptStart stamps the start of the current attempt; restartLat
	// accumulates the latency of this descriptor's rolled-back attempts
	// until finishCommit folds it into the thread shard (under the same
	// serialization that protects workAcc).
	attemptStart time.Time
	restartLat   txstats.Hist

	// Retry/Wait cond-var state: Retry subscribes the waiter on the
	// attempt's read-set fingerprint and sets parkPending; the next
	// attempt parks on the doorbell before re-executing (after the
	// rollback released the attempt's locks). retryWakes accumulates
	// doorbell wakes across the incarnation and folds in finishCommit
	// like the probes.
	waiter      mode.Waiter
	parkPending bool
	parkFP      mode.Fingerprint
	retryWakes  uint64

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
// Version is the committed version observed (noVersion for reads served
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

// restartSignal unwinds a task attempt back to its run loop. It never
// escapes the package.
type restartSignal struct{}

// txSelfAbortDefeats is the deadlock escape hatch for policies that
// only ever abort the requester: after this many contention-manager
// defeats, losing once more aborts the whole user-transaction instead
// of just the task, releasing every lock the transaction holds (a task
// restart alone cannot release locks its transaction's other tasks
// took, so a cross-thread lock cycle under a pure self-abort policy
// would otherwise never break).
const txSelfAbortDefeats = 8

// tick charges work units to the virtual-time model. It makes no
// scheduler call: a conflict-free task keeps its processor.
func (t *Task) tick(units uint64) { t.workAcc += units }

func (t *Task) slot() *atomic.Pointer[Task] {
	return &t.thr.slots[t.serial.Load()%int64(t.thr.depth)]
}

// run executes one task incarnation, on its scheduler slot's worker or
// — the head of an Atomic — on the submitting goroutine: join the
// transaction, then execute attempts until the enclosing
// user-transaction commits, then retire the descriptor. The final
// tx.live decrement is this incarnation's last access to the
// transaction descriptor — Submit recycles it only at zero.
func (t *Task) run() {
	tx := t.tx
	// Retire via defer so a genuine-bug panic propagating out of
	// attempt still leaves the descriptor machinery consistent: on a
	// worker the panic then crashes the process (as the old
	// goroutine-per-task spawn did), but a head task's surfaces in the
	// submitting goroutine, where application code may recover — the
	// runtime must wedge loudly (that transaction never commits) rather
	// than corrupt its rings.
	defer func() {
		t.slot().Store(nil)
		tx.live.Add(-1)
	}()
	if t.traced {
		t.tr.Record(txtrace.KindTxBegin, t.thr.rt.Clk.Now(), uint64(t.serial.Load()), 0)
	}
	t.joinTx()
	for t.attempt() {
	}
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
		t.rendezvous()
	}
}

// attempt runs the body once; it reports whether the task must restart.
func (t *Task) attempt() (restart bool) {
	t.attemptStart = time.Now()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, is := r.(restartSignal); is {
			t.undoAttempt()
			t.restartLat.Observe(int(time.Since(t.attemptStart)))
			restart = true
			return
		}
		// A panic out of the body: if our speculative reads were
		// inconsistent, this is the sandboxing case of §3.2
		// ("Inconsistent reads") — restart. Otherwise it is a genuine
		// bug; release our state and propagate.
		if !t.consistent() {
			t.undoAttempt()
			t.tx.taskRestarts.Add(1)
			t.tx.restartKind[restartSandbox].Add(1)
			if t.traced {
				t.tr.Record(txtrace.KindAbort, t.validTS, uint64(t.serial.Load()), txtrace.AbortSpec)
			}
			t.restartLat.Observe(int(time.Since(t.attemptStart)))
			restart = true
			return
		}
		t.undoAttempt()
		panic(r)
	}()

	if t.parkPending {
		t.parkRetry()
	}
	t.preRestartWait()
	t.begin()
	t.fn(t)
	t.commitStep()
	t.backoff = 0
	return false
}

// preRestartWait delays a restart while the condition that rolled us
// back clears (see waitBeforeRestart and backoff). The wait is charged
// WaitRoundCost per spin round: it is real serialization — the past
// writer we conflicted with is executing during it — and it is exactly
// what makes the paper's write traversals "execute almost serially".
func (t *Task) preRestartWait() {
	if w := t.waitBeforeRestart; w >= 0 {
		for t.thr.completedTask.Load() < w {
			if t.tx.abortTx.Load() {
				if t.traced {
					t.tr.Record(txtrace.KindAbort, t.validTS, uint64(t.serial.Load()), txtrace.AbortSignal)
				}
				t.rendezvous()
				panic(restartSignal{})
			}
			t.workAcc += txrt.WaitRoundCost
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
	// through OnAbort matters beyond style — policies whose conflicts
	// can kill both sides of a lock cycle (Karma's push-through rule)
	// depend on randomized spacing here, or the mutually-killed
	// transactions relaunch in lockstep and livelock.
	if n := t.tx.txAborts.Load(); n > 0 {
		t.cmSelf.Aborts = n
		y := cm.AbortBackoff(t.thr.rt.CM, &t.cmSelf)
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

// begin is the paper's start() (Alg. 1 lines 1–4) for one incarnation.
func (t *Task) begin() {
	// Open the read-log liveness window before anything is read: any
	// entry retired from here on carries a retirement epoch above this
	// snapshot, so the reclamation audit knows this attempt may hold it.
	t.readHorizon.Store(t.thr.retireEpoch.Load())
	t.abortInternal.Store(false)
	t.lastWriter = t.thr.completedWriter.Load()
	t.validTS = t.thr.rt.Clk.Now()
	t.mvActive = false
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
		t.mvActive = true
	}
	t.workAcc += txrt.TxStartCost
	t.readLog.Reset()
	t.writeLog.Reset()
	t.allocs = t.allocs[:0]
	t.frees = t.frees[:0]
	if t.traced {
		aux := uint32(0)
		if t.mvActive {
			aux = 1
		}
		t.tr.Record(txtrace.KindAttemptStart, t.validTS, uint64(t.serial.Load()), aux)
	}
}

// undoAttempt releases everything a failed attempt left behind. Chain
// removal is idempotent, so it is safe whether or not a transaction
// abort already unwound our entries.
func (t *Task) undoAttempt() {
	t.unwindWrites()
	for _, a := range t.allocs {
		t.thr.rt.Alloc.Free(a)
	}
	t.allocs = t.allocs[:0]
	// The attempt's read log is dead: it will never be validated again
	// (consistent() runs before undoAttempt in the sandbox path, and a
	// restart resets the log before reading). Close the liveness window
	// so the reclamation audit stops charging this attempt.
	t.readHorizon.Store(horizonDead)
}

// horizonDead is the readHorizon value of a task holding no live read
// log: above every retirement epoch, so the reclamation audit never
// charges it.
const horizonDead = int64(math.MaxInt64)

// consistent reports whether the attempt's reads are still valid (used
// to distinguish speculation-induced panics from real bugs).
func (t *Task) consistent() bool {
	if !t.validateTask() {
		return false
	}
	for _, re := range t.readLog.Entries() {
		if re.Version == noVersion {
			continue
		}
		// Same rule as extendTo: a moved version on a pair we
		// write-lock still means the read predates a conflicting
		// commit, so the attempt is a zombie — classify it as
		// inconsistent and restart rather than surface its panic.
		cur := re.Pair.R.Load()
		if cur != re.Version {
			return false
		}
	}
	return true
}

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

// restartAbortCode maps single-task restart kinds onto the txtrace
// abort-reason codes (WAR and sandbox restarts are both
// speculation-specific; the fine-grained breakdown lives in Stats).
var restartAbortCode = [numRestartKinds]uint32{
	restartWAR:     txtrace.AbortSpec,
	restartWAW:     txtrace.AbortConflict,
	restartExtend:  txtrace.AbortExtend,
	restartCM:      txtrace.AbortCM,
	restartSandbox: txtrace.AbortSpec,
	restartRetry:   txtrace.AbortRetry,
}

// noteConflict attributes one conflict to the lock-table shard of the
// contended address: observed in the task's sketch (the affinity
// placement's input) and counted as cross-shard when it lies outside
// the thread's current home. Called only on cold abort/defeat paths.
func (t *Task) noteConflict(a tm.Addr) {
	shard := t.thr.rt.locks.ShardOf(a)
	t.sketch.Observe(shard)
	if int32(shard) != t.thr.homeShard.Load() {
		t.crossShard++
	}
}

// noteConflictPair is noteConflict for sites that hold only the lock
// pair (commit-time validation walks log entries, not addresses).
func (t *Task) noteConflictPair(p *locktable.Pair) {
	shard := t.thr.rt.locks.ShardOfPair(p)
	t.sketch.Observe(shard)
	if int32(shard) != t.thr.homeShard.Load() {
		t.crossShard++
	}
}

// rollbackTask aborts just this task and restarts it, recording why.
func (t *Task) rollbackTask(kind restartKind) {
	t.tx.taskRestarts.Add(1)
	t.tx.restartKind[kind].Add(1)
	if t.traced {
		t.tr.Record(txtrace.KindAbort, t.validTS, uint64(t.serial.Load()), restartAbortCode[kind])
	}
	panic(restartSignal{})
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
		if t.traced {
			t.tr.Record(txtrace.KindAbort, t.validTS, uint64(t.serial.Load()), txtrace.AbortSignal)
		}
		t.rendezvous()
		panic(restartSignal{})
	}
}

// firstPastOf walks a chain for the newest entry written by a *past*
// task of this thread (serial strictly below ours; our own and future
// entries are skipped). It returns nil when the pair is unlocked or held
// by another thread.
func (t *Task) firstPastOf(head *locktable.WEntry) *locktable.WEntry {
	if head == nil || head.Owner.ThreadID != t.thr.id {
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
	if t.mvActive {
		return t.loadMV(a)
	}
	t.tick(1)
	p := t.locks.For(a)
	if head := p.W.Load(); (head == nil || head.Owner.ThreadID != t.ownerRef.ThreadID) &&
		!t.abortInternal.Load() && !t.tx.abortTx.Load() {
		// Locked is above every snapshot, so one compare covers both.
		if v1 := p.R.Load(); v1 <= t.validTS {
			val := t.store.LoadWord(a)
			if p.R.Load() == v1 {
				t.readLog.Append(p, v1, nil)
				if t.traced {
					t.tr.Record(txtrace.KindRead, v1, uint64(a), 0)
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
	for {
		t.checkSignals()
		head := p.W.Load()
		if head == nil || head.Owner.ThreadID != t.thr.id {
			// Unlocked or locked by another user-thread: read the
			// committed value from memory (redo logging keeps it
			// intact until the writer commits) — Alg. 1 line 16.
			return t.loadCommittedRecording(p, a, nil)
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
		firstPast := e // newest past entry, nil if none

		if firstPast == nil {
			// Only our own / future entries, none covering a: the
			// committed value still stands.
			return t.loadCommittedRecording(p, a, nil)
		}

		// Wait until the past writer completes; reading from running
		// tasks would force validating intermediate values (§3.3).
		t.waitCompleted(firstPast.Serial)

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
		if t.firstPastOf(p.W.Load()) != firstPast {
			continue
		}

		// The chain below firstPast holds strictly older, completed
		// entries; the newest one covering a supplies the value. If none
		// covers a, the committed value stands (and its version must be
		// recorded for inter-thread validation).
		for e := firstPast; e != nil; e = e.Prev.Load() {
			if v, hit := e.Lookup(a); hit {
				t.readLog.Append(p, noVersion, firstPast)
				t.workAcc++
				if t.traced {
					// Aux 2: speculative read served from a past task's
					// redo chain (no committed version to carry).
					t.tr.Record(txtrace.KindRead, 0, uint64(a), 2)
				}
				return v
			}
		}
		return t.loadCommittedRecording(p, a, firstPast)
	}
}

// waitCompleted blocks until the thread's completed-task counter reaches
// serial, honouring abort signals (which panic out via checkSignals).
// The wait is charged WaitRoundCost per round: reading a running past
// writer's location serializes this task behind it (paper §3.3,
// "Reading"), and that serialization must appear in virtual time.
func (t *Task) waitCompleted(serial int64) {
	for t.thr.completedTask.Load() < serial {
		t.checkSignals()
		t.workAcc += txrt.WaitRoundCost
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

// loadCommittedRecording reads the committed value of a — the plain
// SwissTM read path — and records the read with the given firstPast
// chain identity, the WAR bookkeeping for the case where our thread
// later write-locks the pair.
func (t *Task) loadCommittedRecording(p *locktable.Pair, a tm.Addr, firstPast *locktable.WEntry) uint64 {
	for {
		t.checkSignals()
		v1 := p.R.Load()
		if v1 == locktable.Locked {
			runtime.Gosched()
			continue
		}
		val := t.thr.rt.Store.LoadWord(a)
		if p.R.Load() != v1 {
			continue
		}
		if v1 > t.validTS && !t.extendTo(v1) {
			t.noteConflict(a)
			t.rollbackTask(restartExtend)
		}
		if v1 > t.validTS {
			continue
		}
		t.readLog.Append(p, v1, firstPast)
		if t.traced {
			t.tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only
// transaction with multi-versioning on: resolve a against the
// transaction's frozen snapshot without appending to the read log. The
// word's current value serves when its pair's version is at most the
// snapshot; otherwise the version store supplies the displaced value
// whose validity interval covers the snapshot. Neither case needs
// validation or extension — the snapshot never moves — so the only
// exits besides a value are the whole-transaction fallback
// (mvFallback) and the abort signals every read path polls.
func (t *Task) loadMV(a tm.Addr) uint64 {
	t.tick(1)
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
		v1 := p.R.Load()
		if v1 != locktable.Locked && v1 <= t.validTS {
			val := t.thr.rt.Store.LoadWord(a)
			if p.R.Load() == v1 {
				t.mvReads++
				if t.traced {
					t.tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue
		}
		if val, from, ok := t.thr.rt.MV.ReadAt(a, t.validTS); ok {
			t.mvReads++
			if t.traced {
				// Clock carries the served version's birth stamp, not the
				// snapshot: the opacity checker needs the observed version.
				t.tr.Record(txtrace.KindRead, from, uint64(a), 1)
			}
			return val
		}
		if v1 == locktable.Locked {
			// A commit holds the r-lock for a bounded publish window; it
			// may hand the version store exactly the displaced value the
			// snapshot needs. Waiting on it costs parallel time.
			t.workAcc += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		// Committed past the snapshot and the ring holds no version old
		// enough: overrun by more than MVDepth later commits.
		t.mvFallback()
	}
}

// mvFallback abandons the wait-free path: latch the fallback for the
// whole user-transaction and abort it, so the re-execution runs every
// task with ordinary validated reads. The abort must be
// transaction-wide — the attempt's multi-version reads were never
// logged, so no per-task restart could revalidate them against a moved
// snapshot.
func (t *Task) mvFallback() {
	t.mvMisses++
	t.tx.mvOff.Store(true)
	if t.traced {
		t.tr.Record(txtrace.KindAbort, t.validTS, uint64(t.serial.Load()), txtrace.AbortSpec)
	}
	t.abortOwnTx()
}

// extendTo revalidates the read log and advances valid-ts (SwissTM's
// lazy snapshot extension), after asking the clock to cover the
// witnessed stamp: pre-publishing strategies (deferred, sharded) only
// advance on Observe, and without it the stamp that triggered the
// extension would stay forever ahead of valid-ts and the read would
// livelock.
func (t *Task) extendTo(witness uint64) bool {
	ts := t.thr.rt.Clk.Observe(witness, &t.clkProbe)
	for i, re := range t.readLog.Entries() {
		if re.Version == noVersion {
			continue
		}
		if i%txrt.ValidationStride == 0 {
			t.workAcc++
		}
		cur := re.Pair.R.Load()
		if cur == re.Version {
			continue
		}
		// Pairs this task write-locks are deliberately NOT exempt:
		// holding the chain freezes the r-lock against other threads,
		// but the version may have moved between our read and our
		// acquisition (a foreign commit while the pair was free), and
		// under pipelining an earlier transaction of our own thread
		// may publish a pair our entry sits on. Either way the read's
		// snapshot no longer covers the extension target — the
		// exemption let such zombies run on a mixed read set until
		// commit-time validation, which the trace-based opacity
		// checker flagged under high contention.
		if t.traced {
			t.tr.Record(txtrace.KindExtend, ts, witness, 0)
		}
		return false
	}
	if ts > t.validTS {
		t.extends++
		if t.traced {
			t.tr.Record(txtrace.KindExtend, ts, witness, 1)
		}
	}
	t.validTS = ts
	return true
}

// validateTask is Alg. 1 lines 17–31 at pair granularity: for every
// recorded read, the newest past-task entry of the pair's redo chain
// must be exactly the one observed at read time (nil included). Any new
// past writer, any unwound writer, and any writer whose transaction
// committed (chain unlocked) invalidates the read.
func (t *Task) validateTask() bool {
	for i, re := range t.readLog.Entries() {
		if i%txrt.ValidationStride == 0 {
			t.workAcc++
		}
		if t.firstPastOf(re.Pair.W.Load()) != re.FirstPast {
			return false
		}
	}
	return true
}

// Store implements tm.Tx: the write-word procedure of Alg. 2.
func (t *Task) Store(a tm.Addr, v uint64) {
	if t.mvActive {
		// A write under a read-only declaration: the declaration was
		// wrong (or conservative). Re-execute the transaction validated;
		// correctness never depended on the caller's hint.
		t.mvFallback()
	}
	t.tick(2)
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
				if t.traced {
					t.tr.Record(txtrace.KindWrite, t.validTS, uint64(a), 0)
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
		if e.Owner.ThreadID != t.thr.id {
			// Write-locked by another user-thread: inter-thread
			// contention management (Alg. 2 lines 41–43, 54–64 under the
			// default task-aware policy). If we lose, this task rolls
			// back (Alg. 2 line 42); if the owner loses, its whole
			// user-transaction is signalled to abort and we wait for
			// the lock to be released.
			t.cmSelf.Point = cm.PointEncounter
			t.cmSelf.Writes = t.writeLog.Len()
			t.cmSelf.Defeats = int(t.tx.cmDefeats.Load())
			t.cmSelf.Completed = t.thr.completedTask.Load()
			t.cmSelf.Waited = waited
			dec := cm.Resolve(t.thr.rt.CM, &t.cmSelf, e.Owner)
			if t.traced {
				t.tr.Record(txtrace.KindCMDecision, t.validTS, uint64(a),
					txtrace.CMAux(int(dec), int(cm.PointEncounter)))
			}
			switch dec {
			case cm.AbortSelf:
				t.noteConflict(a)
				defeats := t.tx.cmDefeats.Add(1)
				t.cmSelf.Aborts = uint64(defeats)
				t.backoff = cm.AbortBackoff(t.thr.rt.CM, &t.cmSelf)
				// A task-level restart does not release the locks held
				// by this transaction's OTHER tasks, so a policy that
				// never aborts owners (suicide, backoff) would leave a
				// cross-thread lock cycle standing forever — the §3.2
				// inter-thread deadlock. Every txSelfAbortDefeats-th
				// defeat therefore escalates to a whole-transaction
				// self-abort, releasing everything the transaction
				// holds; policies that escalate to AbortOwner (greedy,
				// task-aware, karma) break cycles long before this
				// bound is reached.
				if defeats%txSelfAbortDefeats == 0 {
					if t.traced {
						t.tr.Record(txtrace.KindAbort, t.validTS, uint64(ser), txtrace.AbortCM)
					}
					t.abortOwnTx()
				}
				t.rollbackTask(restartCM)
			case cm.AbortOwner:
				e.Owner.AbortTx.Load().Store(true)
			}
			// A serialized-fallback entrant is draining: riding the
			// conflict out here can deadlock — the entrant waits for
			// in-flight speculation to finish while this wait loop may
			// (transitively) depend on a lock the gated transaction will
			// only take once inside. Abort the whole transaction, not
			// just the task: a task restart cannot release locks held by
			// this transaction's sibling tasks, and those are exactly
			// what the entrant can be stuck behind. Transactions already
			// under the gate are exempt.
			if gatePendingBreak && !t.tx.inSerial && t.thr.rt.Gate.Pending() {
				t.noteConflict(a)
				if t.traced {
					t.tr.Record(txtrace.KindAbort, t.validTS, uint64(ser), txtrace.AbortCM)
				}
				t.abortOwnTx()
			}
			// AbortOwner and Wait both ride the conflict out for a
			// round; waiting on another thread's lock costs parallel
			// time (about WaitRoundCost of owner progress per round).
			waited++
			t.workAcc += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		if e.Serial > ser {
			// A future task of my thread holds the lock: it is the one
			// in the wrong in program order; signal it to abort and
			// wait for the chain to unwind (Alg. 2 lines 46–48).
			e.Owner.AbortInternal.Store(true)
			t.workAcc += txrt.WaitRoundCost
			runtime.Gosched()
			continue
		}
		// A past task holds the lock. If it is still running this is a
		// WAW conflict against program order: we (the future writer)
		// abort and re-run once the writer has completed (Alg. 2 lines
		// 44–45). If it completed, we stack a new entry on the
		// location's redo log (lines 49–51).
		if t.thr.completedTask.Load() < e.Serial {
			t.noteConflict(a)
			t.waitBeforeRestart = e.Serial
			t.rollbackTask(restartWAW)
		}
		ne := t.newEntry(p, a, v, ser)
		ne.Prev.Store(e)
		if p.W.CompareAndSwap(e, ne) {
			t.writeLog.Append(ne)
			if t.traced {
				t.tr.Record(txtrace.KindWrite, t.validTS, uint64(a), 0)
			}
			break
		}
		t.writeLog.Release(ne) // never published; immediately reusable
	}
	// Post-write checks (Alg. 2 lines 52–53). Passing the witnessed
	// version into the extension matters beyond liveness: it guarantees
	// this transaction's eventual commit stamp exceeds every version it
	// displaces, so locations never regress under pre-publishing
	// strategies.
	if ver := p.R.Load(); ver != locktable.Locked && ver > t.validTS && !t.extendTo(ver) {
		t.noteConflict(a)
		t.rollbackTask(restartExtend)
	}
	t.maybeValidate()
}

// newEntry produces a write-lock entry for installation, recycling a
// retired one when the thread's committed-transaction frontier
// (sched.Latch txDone — the horizon every reuse is gated on) has passed
// its retirement serial.
func (t *Task) newEntry(p *locktable.Pair, a tm.Addr, v uint64, ser int64) *locktable.WEntry {
	return t.writeLog.NewEntryAt(&t.ownerRef, ser, p, a, v, t.thr.txDone.Seq())
}

// gatePendingBreak arms the wait-loop break above. It exists as a
// package variable only so the directed deadlock regression
// (gate_test.go) can verify the break is load-bearing by disarming it;
// it is never cleared in production.
var gatePendingBreak = true

// Retry implements the transactional cond-var wait: the caller's
// predicate over its reads failed, so abandon the attempt and block
// until a conflicting commit changes something the attempt read. The
// task subscribes a fingerprint over its read-set's lock pairs, then
// revalidates — if the reads are already stale the wake may have
// happened before the subscription, so the re-execution proceeds
// immediately; otherwise the next attempt parks on the doorbell first
// (after this attempt's rollback has released its locks and, under the
// serialized rung, the gate).
//
// Only a single-task transaction may park: a parked intermediate task
// would strand the locks its sibling tasks hold (and cannot observe the
// abort signals that resolve such stand-offs). Multi-task transactions
// therefore respin with exponential backoff instead — the predicate is
// re-checked from scratch each round.
func (t *Task) Retry() {
	if t.mvActive {
		// Wait-free reads are unlogged: there is no read set to
		// fingerprint or revalidate. Re-execute validated.
		t.mvFallback()
	}
	tx := t.tx
	if tx.startSerial != tx.commitSerial {
		cfg := &t.thr.rt.ModeCfg
		if t.backoff == 0 {
			t.backoff = cfg.SpinInit
		} else if t.backoff < cfg.SpinCell {
			t.backoff *= cfg.SpinFactor
			if t.backoff > cfg.SpinCell {
				t.backoff = cfg.SpinCell
			}
		}
		t.rollbackTask(restartRetry)
	}
	var fp mode.Fingerprint
	for _, re := range t.readLog.Entries() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(re.Pair)))
	}
	if fp != 0 {
		hub := t.thr.rt.Hub
		hub.Subscribe(&t.waiter, fp)
		valid := true
		for _, re := range t.readLog.Entries() {
			if re.Version == noVersion {
				continue
			}
			if re.Pair.R.Load() != re.Version {
				valid = false
				break
			}
		}
		if valid {
			t.parkPending = true
			t.parkFP = fp
		} else {
			hub.Unsubscribe(&t.waiter)
		}
	}
	t.rollbackTask(restartRetry)
}

// parkRetry blocks the task on its Retry doorbell until a conflicting
// commit rings it (see Retry). Under the serialized rung the gate is
// released across the park — holding it would stall every other
// fallback entrant behind a predicate only a speculative committer can
// change — and retaken before the re-execution. Cross-goroutine
// Exit/Enter is sound: the gate's mutex is not owner-tracked, and the
// submitting goroutine is itself inside this transaction — running its
// head or blocked on its latch — for the whole window.
func (t *Task) parkRetry() {
	t.parkPending = false
	if t.traced {
		t.tr.Record(txtrace.KindRetryPark, t.thr.rt.Clk.Now(), uint64(t.parkFP), 0)
	}
	gated := t.tx.inSerial
	if gated {
		t.thr.rt.Gate.Exit()
	}
	t.waiter.Park()
	t.thr.rt.Hub.Unsubscribe(&t.waiter)
	if gated {
		t.thr.rt.Gate.Enter()
	}
	t.retryWakes++
	if t.traced {
		t.tr.Record(txtrace.KindRetryPark, t.thr.rt.Clk.Now(), uint64(t.parkFP), 1)
	}
}

// Alloc implements tm.Tx; the block is reclaimed if the attempt aborts.
func (t *Task) Alloc(n int) tm.Addr {
	t.workAcc++
	a := t.thr.rt.Alloc.Alloc(n)
	t.allocs = append(t.allocs, a)
	return a
}

// Free implements tm.Tx; the release applies at transaction commit.
func (t *Task) Free(a tm.Addr) {
	t.frees = append(t.frees, a)
}

// Serial reports the task's program-order serial within its user-thread
// (tests and instrumentation).
func (t *Task) Serial() int64 { return t.serial.Load() }

var _ tm.Tx = (*Task)(nil)

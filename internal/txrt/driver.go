package txrt

import (
	"runtime"
	"sync/atomic"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Algorithm is the part of a runtime the driver cannot share: its *Tx
// (core: each task) implements it. Every method is called once per
// attempt (SetSizes once per transaction), never per access.
type Algorithm interface {
	// Begin resets the per-attempt state (logs, held locks), samples
	// the snapshot from the commit clock and returns it. It runs inside
	// the attempt, so it may abort.
	Begin() uint64
	// Exec runs the user body and commits. A conflict unwinds it
	// through Desc.Abort.
	Exec()
	// Release drops every lock the attempt holds and undoes its
	// in-place writes. Called on abort and when the body panics; must
	// tolerate an attempt that holds nothing.
	Release()
	// SetSizes reports the committed attempt's read- and write-set
	// sizes.
	SetSizes() (reads, writes int)
}

// Speculative is an Algorithm whose attempts may read inconsistent
// state: core's ring tasks, which read past tasks' speculative writes.
// After a panic out of an attempt, Sandboxed reports whether the
// attempt's reads were inconsistent (paper §3.2): the driver then
// discards the attempt and restarts it instead of surfacing the panic.
// Such an algorithm waits out its own restarts in Begin, so the driver
// skips its policy backoff.
type Speculative interface {
	Algorithm
	Sandboxed() bool
}

// rollback is the panic value that unwinds an aborted attempt back to
// the retry loop. It never escapes Run.
type rollback struct{}

// Desc is the engine kit's half of a transaction descriptor, embedded
// by stm.Tx, tl2.Tx, wtstm.Tx and core.Task. Exported fields are the ones
// algorithm code reads or writes on its access and commit paths; the
// rest is the kit's. A Desc is reused across attempts and transactions
// and must be used by one goroutine at a time.
type Desc struct {
	env  *Env
	alg  Algorithm
	spec Speculative // alg, if it is one

	// Work is the current transaction's work units over all attempts.
	Work uint64
	// Extends counts successful snapshot extensions; Reclaims/Stalls
	// the pooled write-entry counts an algorithm with an entry pool
	// reports. All per transaction, folded at commit.
	Extends  uint64
	Reclaims uint64
	Stalls   uint64
	// Validated counts the read entries the transaction's validation
	// passes checked, over all attempts, folded at commit.
	Validated uint64

	// MVOn is true while a declared read-only transaction runs the
	// multi-version wait-free read path. A miss clears it for the rest
	// of the transaction, which re-runs validated — never an error.
	MVOn     bool
	MVReads  uint64
	MVMisses uint64

	// CMSelf is the contention-management identity, its situational
	// fields refreshed in place before every resolution so the conflict
	// path never allocates. GreedTS is the priority slot policies
	// publish into; it persists across retries of one transaction.
	CMSelf  cm.Self
	cmProbe cm.Probe
	GreedTS atomic.Uint64

	// InSerial marks a transaction that holds the serialized gate: a
	// Retry park releases it across the park.
	InSerial bool

	// parkPending: ArmPark subscribed waiter on parkFP, and the retry
	// loop parks (parkRetry) before the next attempt.
	parkPending bool
	parkFP      uint64
	waiter      mode.Waiter
	retryWakes  uint64

	// Tr is the descriptor's flight recorder (txtrace.Nop by default);
	// Traced caches Tr.Enabled() so the disabled hot path costs one
	// predicted branch instead of an interface call per operation.
	Tr     txtrace.Tracer
	Traced bool

	allocs []tm.Addr // fresh blocks to release on abort
	frees  []tm.Addr // deferred frees to apply on commit

	aborts uint64 // rolled-back attempts of this transaction

	// Latency timing is sampled: of the descriptor's attempts, counted by
	// attemptN, one in latencySample is timed (sampled), the first one
	// included. attemptStart is the start of the last sampled attempt.
	attemptN     uint32
	attemptStart time.Time

	// Only a sampled dead attempt writes restartLat, so it is folded and
	// cleared only when aborts is non-zero.
	restartLat txstats.Hist
}

// latencySample is the latency sampling period: a descriptor times one
// attempt in latencySample. A clock read and its time.Since cost more
// than half of a one-word transaction, so timing every attempt would
// about double the transaction's fixed cost.
const latencySample = 64

// Init wires the descriptor to its runtime and algorithm, once, at
// descriptor creation; ring labels its trace ring.
func (d *Desc) Init(env *Env, alg Algorithm, ring string) {
	d.env = env
	d.alg = alg
	d.spec, _ = alg.(Speculative)
	d.CMSelf.Timestamp = &d.GreedTS
	d.CMSelf.Probe = &d.cmProbe
	d.Tr, d.Traced = env.NewTracer(ring)
}

// Run executes one transaction to commit: the retry loop around
// alg.Begin/Exec, folded into st (nil records nothing). ro declares the
// transaction read-only.
func (d *Desc) Run(st *Stats, ro bool) {
	if st == nil {
		d.RunOn(nil, ro)
		return
	}
	d.RunOn(&st.Counters, ro)
	st.Commits++
	st.Aborts += d.aborts
}

// RunOn is Run folding the descriptor into c (nil records nothing) and
// leaving the outcome counts to the caller: core runs a transaction that
// does not ship through it and counts commits and aborts its own way.
func (d *Desc) RunOn(c *Counters, ro bool) {
	env := d.env
	d.Reset()
	if d.GreedTS.Load() != 0 { // a load is a MOV, a store an XCHG
		d.GreedTS.Store(0)
	}
	d.MVOn = ro && env.MV != nil
	if d.Traced {
		d.Tr.Record(txtrace.KindTxBegin, env.Clk.Now(), 0, 0)
	}
	d.attempts(env.Serial)
	d.Close(c)
}

// Attempts runs attempts until one commits, for a caller that owns the
// transaction's boundaries (Reset before, Close after) and its gate:
// core's ring tasks.
func (d *Desc) Attempts() { d.attempts(false) }

// attempts is the retry loop. A serial transaction takes the runtime
// gate before its first attempt and runs the unchanged protocol under
// it: opacity by construction, serialization against the runtime's
// other transactions.
func (d *Desc) attempts(serial bool) {
	if serial {
		d.enterGate()
	}
	for {
		if d.parkPending {
			d.parkRetry()
		}
		if d.attempt(serial) {
			break
		}
		d.restarted()
		if d.parkPending {
			// A Retry unwound this attempt; it parks at the top of the
			// loop, with no contention backoff.
			continue
		}
		if d.spec != nil {
			continue // it waits out its own restarts in Begin
		}
		// Back off per policy so the conflict window is not re-entered
		// immediately (and, on a single CPU, so the lock owner we lost
		// to gets scheduled before we re-acquire).
		d.CMSelf.Aborts = d.aborts
		for i, n := 0, cm.AbortBackoff(d.env.CM, &d.CMSelf); i < n; i++ {
			runtime.Gosched()
		}
	}
	if serial {
		d.exitGate()
	}
}

// attempt runs one attempt, begin to commit, and reports success. It
// turns an abort's unwind into a false return and so does a sandboxed
// panic (Speculative), whose attempt it discards. After a genuine user
// panic it releases the attempt's locks and allocations, and the gate if
// the driver took it (serial), so the rest of the system stays live
// while the panic propagates.
func (d *Desc) attempt(serial bool) (ok bool) {
	var snap uint64
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollback); is {
				return
			}
			if d.spec != nil && d.spec.Sandboxed() {
				d.discard(snap, txtrace.AbortSpec)
				return
			}
			d.alg.Release()
			d.releaseAllocs()
			if serial {
				d.exitGate()
			}
			panic(r)
		}
	}()
	d.startAttempt()
	snap = d.alg.Begin()
	d.Work += TxStartCost
	if d.Traced {
		d.Tr.Record(txtrace.KindAttemptStart, snap, d.aborts+1, 0)
	}
	d.alg.Exec()
	return true
}

// Close settles a committed descriptor: the fold into c (nil folds
// nothing). core closes every task of a committed ring transaction.
func (d *Desc) Close(c *Counters) {
	if c != nil {
		reads, writes := d.alg.SetSizes()
		d.fold(c, reads, writes)
	} else {
		d.cmProbe.TakeCounts() // nothing records them; clear for the next transaction
	}
}

// Abort releases the attempt's locks and speculative allocations,
// records the reason on the trace (snap is the attempt's current
// snapshot) and unwinds to the retry loop. The abort event closes the
// attempt on the trace, so it follows whatever Release records. Not
// inlined: its callers' signal polls (stm's checkSignals) must inline.
//
//go:noinline
func (d *Desc) Abort(snap uint64, reason uint32) {
	d.discard(snap, reason)
	panic(rollback{})
}

// discard is Abort without the unwind.
func (d *Desc) discard(snap uint64, reason uint32) {
	d.alg.Release()
	d.releaseAllocs()
	if d.Traced {
		d.Tr.Record(txtrace.KindAbort, snap, 0, reason)
	}
}

// Contend is the contention manager's front half for one round of a
// lock conflict at address a: resolve it through the policy, trace the
// verdict (snap is the attempt's snapshot), signal owner (nil for
// anonymous version locks) on AbortOwner. It reports an AbortSelf
// verdict (lost); the reaction is the caller's.
func (d *Desc) Contend(snap uint64, a tm.Addr, point cm.Point, writes, waited int, owner *locktable.OwnerRef) (lost bool) {
	d.CMSelf.Point = point
	d.CMSelf.Writes = writes
	d.CMSelf.Waited = waited
	dec := cm.Resolve(d.env.CM, &d.CMSelf, owner)
	if d.Traced {
		d.Tr.Record(txtrace.KindCMDecision, snap, uint64(a), txtrace.CMAux(int(dec), int(point)))
	}
	if dec == cm.AbortOwner {
		owner.AbortTx.Load().Store(true)
	}
	return dec == cm.AbortSelf
}

// ResolveConflict is Contend plus the flat reaction: a lost conflict
// aborts the attempt. When it returns the caller waits one round and
// looks again.
func (d *Desc) ResolveConflict(snap uint64, a tm.Addr, point cm.Point, writes, waited int, owner *locktable.OwnerRef) {
	if d.Contend(snap, a, point, writes, waited, owner) {
		d.CMSelf.Defeats++
		d.Abort(snap, txtrace.AbortCM)
	}
}

// Tick charges work units to the virtual-time model. It makes no
// scheduler call: a conflict-free transaction keeps its processor.
func (d *Desc) Tick(units uint64) { d.Work += units }

// Alloc implements tm.Tx: allocation is undone if the attempt aborts.
func (d *Desc) Alloc(n int) tm.Addr {
	d.Work++
	a := d.env.Alloc.Alloc(n)
	d.allocs = append(d.allocs, a)
	return a
}

// Free implements tm.Tx: the release is deferred to commit.
func (d *Desc) Free(a tm.Addr) { d.frees = append(d.frees, a) }

// ApplyFrees releases the blocks the committed transaction freed.
func (d *Desc) ApplyFrees() {
	for _, a := range d.frees {
		d.env.Alloc.Free(a)
	}
}

// Committed closes a committed attempt: it applies the deferred frees
// and records the commit at ts, with its write-set size, on the trace.
func (d *Desc) Committed(ts uint64, writes int) {
	d.ApplyFrees()
	if d.Traced {
		d.Tr.Record(txtrace.KindCommit, ts, uint64(writes), 0)
	}
}

// releaseAllocs returns the attempt's fresh blocks to the allocator and
// drops its deferred frees: the attempt is dead.
func (d *Desc) releaseAllocs() {
	for _, a := range d.allocs {
		d.env.Alloc.Free(a)
	}
	d.allocs = d.allocs[:0]
	d.frees = d.frees[:0]
}

// enterGate moves the transaction under the serialized rung.
func (d *Desc) enterGate() {
	d.env.Gate.Enter()
	d.InSerial = true
}

func (d *Desc) exitGate() {
	d.InSerial = false
	d.env.Gate.Exit()
}

// ArmPark is Retry's shared half: subscribe the read-set fingerprint fp,
// then revalidate the read set (valid). That order is the lost-wakeup
// argument: a commit published before the subscription fails valid (no
// park), one published after it rings the registered waiter. An empty
// (fp 0) or stale read set never parks. The caller unwinds next.
func (d *Desc) ArmPark(fp mode.Fingerprint, valid func() bool) {
	if fp == 0 {
		return
	}
	d.env.Hub.Subscribe(&d.waiter, fp)
	if valid() {
		d.parkPending = true
		d.parkFP = uint64(fp)
	} else {
		d.env.Hub.Unsubscribe(&d.waiter)
	}
}

// parkRetry blocks on the Retry doorbell until a conflicting commit
// rings it. A serialized transaction releases the gate across the park
// (holding it would block every other transaction, the producer it
// waits for among them) and re-enters afterwards; the gate is not
// owner-tracked, so another goroutine of the transaction may park.
func (d *Desc) parkRetry() {
	d.parkPending = false
	if d.Traced {
		d.Tr.Record(txtrace.KindRetryPark, d.env.Clk.Now(), d.parkFP, 0)
	}
	serial := d.InSerial
	if serial {
		d.exitGate()
	}
	d.waiter.Park()
	d.env.Hub.Unsubscribe(&d.waiter)
	if serial {
		d.enterGate()
	}
	d.retryWakes++
	if d.Traced {
		d.Tr.Record(txtrace.KindRetryPark, d.env.Clk.Now(), d.parkFP, 1)
	}
}

// Reset starts a transaction: it clears what fold reads and forgets the
// previous transaction's allocations and frees. A dead attempt's are
// dropped by its releaseAllocs.
func (d *Desc) Reset() {
	if d.aborts != 0 {
		d.restartLat = txstats.Hist{}
	}
	d.allocs = d.allocs[:0]
	d.frees = d.frees[:0]
	d.Work, d.Extends, d.Reclaims, d.Stalls, d.Validated = 0, 0, 0, 0, 0
	d.MVReads, d.MVMisses, d.retryWakes = 0, 0, 0
	d.aborts = 0
	d.CMSelf.Defeats = 0
}

// startAttempt counts an attempt and stamps a sampled one's start. It
// inlines into attempt; the clock read stays out of line on the rare
// branch.
func (d *Desc) startAttempt() {
	d.attemptN++
	if d.sampled() {
		d.stamp()
	}
}

// sampled reports whether the current attempt's latency is timed.
func (d *Desc) sampled() bool { return d.attemptN%latencySample == 1 }

// stamp reads the clock for a sampled attempt.
//
//go:noinline
func (d *Desc) stamp() { d.attemptStart = time.Now() }

// restarted records a rolled-back attempt and, if sampled, its latency.
func (d *Desc) restarted() {
	if d.sampled() {
		d.restartLat.Observe(int(time.Since(d.attemptStart)))
	}
	d.aborts++
}

// fold adds the committed transaction's descriptor counters to c, with
// reads/writes its committed set sizes. The flat runtimes fold once per
// transaction; core folds every task of a committed transaction.
func (d *Desc) fold(c *Counters, reads, writes int) {
	c.Work += d.Work
	c.SnapshotExtensions += d.Extends
	c.ValidatedEntries += d.Validated
	self, owner, spins := d.cmProbe.TakeCounts()
	c.CMAbortsSelf += self
	c.CMAbortsOwner += owner
	c.BackoffSpins += spins
	c.EntryReclaims += d.Reclaims
	c.HorizonStalls += d.Stalls
	c.MVReads += d.MVReads
	c.MVMisses += d.MVMisses
	c.RetryWakes += d.retryWakes
	c.ReadSetSizes.Observe(reads)
	c.WriteSetSizes.Observe(writes)
	if d.sampled() {
		c.CommitLatency.Observe(int(time.Since(d.attemptStart)))
	}
	c.Attempts.Observe(int(d.aborts) + 1)
	if d.aborts != 0 {
		c.RestartLatency.Merge(d.restartLat)
	}
}

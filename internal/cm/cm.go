// Package cm is the contention-management subsystem shared by every
// transactional runtime in this repository. It owns the policy question
// every TM must answer — when two transactions want the same write lock,
// who yields? — behind one strategy interface, the same way
// internal/clock owns the commit-timestamp question.
//
// The paper's §3.2 policies (SwissTM's two-phase greedy manager and
// TLSTM's task-aware cm-should-abort rule, Alg. 2) are two of the
// implementations; the others come from the wider STM literature:
//
//   - Suicide: pure self-abort with a short grace wait — the fixed
//     behavior TL2 and the write-through STM inlined before this
//     subsystem existed.
//   - Backoff: Suicide's decisions with randomized exponential backoff
//     between retries, replacing the deterministic aborts*8 spin loops.
//   - Greedy: SwissTM's two-phase greedy manager (polite phase, then a
//     seniority timestamp; older transactions win).
//   - Karma: work-based priority accumulated across restarts (Scherer &
//     Scott); a transaction that has invested more work claims the lock,
//     one that has invested less defers in proportion to its deficit.
//   - TaskAware: the paper's Alg. 2 rule — abort the more speculative
//     user-transaction (fewer completed predecessor tasks) — expressed
//     as a decorator over any base policy for the progress tie.
//
// # The decision model
//
// A runtime that hits a held write lock (or, for runtimes whose locks
// are anonymous version words, a locked location) describes itself in a
// Self record and asks the policy through Resolve. The answer is one of
// three Decisions:
//
//   - AbortSelf: the requester rolls back and retries;
//   - AbortOwner: the requester signals the owner's abort flag and
//     waits for the lock to be released;
//   - Wait: the requester waits one round and resolves again (nobody is
//     signalled).
//
// TL2 and the write-through STM have no cross-thread owner header —
// their locks are bare version words — so they resolve with a nil
// owner. A nil owner cannot be signalled, so Resolve degrades an
// AbortOwner verdict into a bounded wait followed by self-abort: you
// cannot kill what you cannot see, but you must not wait for it
// forever either (two write-through transactions eagerly holding each
// other's next lock would otherwise deadlock).
//
// # Liveness
//
// Every built-in policy is non-blocking in the aggregate: on any
// conflict, within a bounded number of Wait rounds the policy either
// aborts the requester (which releases its locks) or aborts the owner
// (whose abort releases the lock being waited for). The conformance
// suite (conformance_test.go) checks decision totality, the bounded-
// wait property, and termination of two-transaction circular waits for
// every policy, under the race detector.
//
// # Accounting
//
// Each execution context owns a Probe, the per-thread side of the
// subsystem: decision counters (AbortsSelf/AbortsOwner/BackoffSpins)
// folded into the runtime's stats shards, the PRNG state behind
// randomized backoff, and the karma carried across restarts. Probes are
// never shared, so the hot path touches no shared contention-manager
// state except the decisions themselves.
package cm

import (
	"fmt"
	"sync/atomic"

	"tlstm/internal/clock"
	"tlstm/internal/locktable"
	"tlstm/internal/xrand"
)

// Decision is the outcome of resolving a write/write conflict between
// the requesting transaction ("self") and the current lock owner.
type Decision int

const (
	// AbortSelf: the requester must roll back (and retry).
	AbortSelf Decision = iota + 1
	// AbortOwner: the owner has been (or will be) signalled to abort;
	// the requester should wait for the lock to be released.
	AbortOwner
	// Wait: nobody aborts; the requester backs off one round and
	// resolves the conflict again.
	Wait
)

// String returns the decision's name (tests and logs).
func (d Decision) String() string {
	switch d {
	case AbortSelf:
		return "AbortSelf"
	case AbortOwner:
		return "AbortOwner"
	case Wait:
		return "Wait"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Point classifies the conflict site by how long the owner will hold
// the contended lock — the one fact that changes how patient a sane
// policy should be.
type Point int

const (
	// PointEncounter: the lock was taken at encounter time and is held
	// for the owner transaction's whole lifetime (SwissTM/TLSTM write
	// locks, the write-through STM's in-place locks). Waiting it out
	// means waiting for a full transaction.
	PointEncounter Point = iota
	// PointCommit: the lock is held by a committing transaction for the
	// duration of its publish phase only (TL2's commit-time locks, seen
	// by readers and by competing committers). The hold is short and
	// the owner is already past the point of being aborted.
	PointCommit
)

// Probe is the per-context contention-management state: decision
// counters the runtimes fold into their stats shards, plus the private
// backoff/karma state that persists across transactions. Each
// worker/task descriptor owns one Probe; it is never shared.
type Probe struct {
	// AbortsSelf counts AbortSelf decisions since the last TakeCounts —
	// one per lost conflict, since the requester rolls back immediately.
	AbortsSelf uint64
	// AbortsOwner counts AbortOwner decisions. A conflict is re-resolved
	// every round the requester waits for the signalled owner to
	// release, so one won conflict contributes one count per round it
	// took the owner to concede: a measure of rounds spent winning, not
	// of distinct conflicts.
	AbortsOwner uint64
	// BackoffSpins counts scheduler yields charged by policy backoff
	// (OnAbort) since the last TakeCounts.
	BackoffSpins uint64

	// rng is the xorshift state behind randomized backoff; seeded
	// lazily, private to the owning context.
	rng uint64
	// karma is the work carried across restarts by the Karma policy.
	karma uint64
}

// TakeCounts returns and clears the accumulated decision counters (the
// backoff and karma state survives, so a recycled descriptor keeps its
// priority).
func (p *Probe) TakeCounts() (abortsSelf, abortsOwner, backoffSpins uint64) {
	abortsSelf, abortsOwner, backoffSpins = p.AbortsSelf, p.AbortsOwner, p.BackoffSpins
	p.AbortsSelf, p.AbortsOwner, p.BackoffSpins = 0, 0, 0
	return
}

// rand steps the probe's xorshift64 generator.
func (p *Probe) rand() uint64 { return xrand.Next(&p.rng) }

// Self describes the requesting transaction at a contention-management
// decision point. Each transaction descriptor embeds one Self; the
// runtime refreshes the situational fields (Writes, Waited, Point,
// Completed, ...) in place before every Resolve, so the conflict path
// never allocates.
type Self struct {
	// Timestamp is the transaction's cross-thread priority slot — the
	// locktable.OwnerRef.Timestamp word other threads' policies read.
	// Greedy keeps its seniority stamp here, Karma its published
	// priority. nil on runtimes without per-transaction slots.
	Timestamp *atomic.Uint64
	// Probe is the owning context's probe (stats and backoff state).
	Probe *Probe

	// Point classifies the conflict site (see Point).
	Point Point
	// Writes is how many writes the transaction has buffered or locked
	// so far (two-phase greedy's polite threshold, Karma's work input).
	Writes int
	// Defeats counts conflicts this transaction has lost so far
	// (two-phase greedy's escalation input).
	Defeats int
	// Waited counts the rounds already waited on the current conflict;
	// the runtime resets it when a new conflict begins.
	Waited int
	// Aborts is the transaction's abort/restart count, the input to
	// OnAbort's backoff computation.
	Aborts uint64

	// Completed and Start describe task progress for the task-aware
	// policy (paper Alg. 2): the owning thread's completed-task serial
	// and the transaction's start serial. Both zero on flat runtimes.
	Completed int64
	Start     int64
}

// Progress is the paper's progress measure: completed predecessor tasks
// of the transaction (Alg. 2, cm-should-abort).
func (s *Self) Progress() int64 { return s.Completed - s.Start }

// Policy is one contention-management strategy. Implementations must be
// safe for concurrent use by all transactions of a runtime; per-context
// mutable state belongs in the Probe, reached through Self.
//
// Call policies through the Resolve / AbortBackoff / Committed wrappers
// so decision accounting and nil-owner degradation stay uniform across
// runtimes.
type Policy interface {
	// Name is the policy's flag/label name ("suicide", "backoff",
	// "greedy", "karma", "taskaware").
	Name() string

	// OnConflict resolves a write/write conflict between the requester
	// and the lock owner. owner is nil when the runtime's locks carry
	// no cross-thread header (TL2, write-through STM); policies must
	// tolerate nil owner fields, and an AbortOwner verdict against a
	// nil owner is degraded to a bounded wait by Resolve.
	OnConflict(self *Self, owner *locktable.OwnerRef) Decision

	// OnAbort is the bookkeeping hook for a self-abort: it is called
	// once per rollback of the requester (CM defeats and validation
	// failures alike) and returns how many scheduler yields the retry
	// should back off before re-entering the conflict window.
	OnAbort(self *Self) int

	// OnCommit is the bookkeeping hook for a successful commit of the
	// requester's transaction (Karma resets its accumulated priority
	// here; stateless policies do nothing).
	OnCommit(self *Self)
}

// nilOwnerPatience bounds how long a degraded AbortOwner verdict keeps
// an anonymous-owner conflict waiting before conceding: long enough to
// ride out a committing owner, short enough that two write-through
// transactions eagerly holding each other's next lock cannot deadlock.
const nilOwnerPatience = 64

// Resolve asks pol to resolve the conflict, degrades un-signallable
// verdicts (AbortOwner against a nil owner becomes a bounded Wait, then
// AbortSelf), and folds the decision into the probe's counters. All
// runtimes route their conflicts through here.
func Resolve(pol Policy, self *Self, owner *locktable.OwnerRef) Decision {
	d := pol.OnConflict(self, owner)
	if owner == nil && d == AbortOwner {
		if self.Waited < nilOwnerPatience {
			d = Wait
		} else {
			d = AbortSelf
		}
	}
	if p := self.Probe; p != nil {
		switch d {
		case AbortSelf:
			p.AbortsSelf++
		case AbortOwner:
			p.AbortsOwner++
		}
	}
	return d
}

// AbortBackoff asks pol how many scheduler yields the requester's retry
// should back off (OnAbort) and charges them to the probe.
func AbortBackoff(pol Policy, self *Self) int {
	n := pol.OnAbort(self)
	if n < 0 {
		n = 0
	}
	if p := self.Probe; p != nil {
		p.BackoffSpins += uint64(n)
	}
	return n
}

// Committed runs the policy's commit bookkeeping.
func Committed(pol Policy, self *Self) { pol.OnCommit(self) }

// classicBackoff is the deterministic progressive backoff every runtime
// inlined before this subsystem existed: min(aborts·8, 256) yields, so
// the conflict window is not re-entered immediately (and, on a single
// CPU, the lock owner we lost to gets scheduled before we re-acquire).
func classicBackoff(aborts uint64) int {
	return int(min(aborts*8, 256))
}

// ---------------------------------------------------------------------------
// Suicide
// ---------------------------------------------------------------------------

// commitGrace and encounterGrace are Suicide's patience per conflict
// site: a committing owner (PointCommit) holds its locks only through
// the publish phase, so waiting it out is almost always cheaper than
// aborting — TL2's inlined loop spun up to 64 rounds for exactly this
// reason. An encounter-time owner (PointEncounter) holds for its whole
// transaction; the write-through STM's inlined rule was one grace yield
// and then abort, which these constants reproduce.
const (
	commitGrace    = 64
	encounterGrace = 1
)

// Suicide is pure self-abort: the requester never signals anyone and
// rolls itself back after a short site-dependent grace wait. It is the
// zero-cost default for TL2 and the write-through STM — exactly the
// behavior both had hardwired — and the simplest possible baseline for
// policy sweeps. The zero value is ready to use.
type Suicide struct{}

// Name implements Policy.
func (Suicide) Name() string { return KindSuicide.String() }

// OnConflict implements Policy: wait out a committing owner briefly,
// then die; never touch the owner.
func (Suicide) OnConflict(self *Self, _ *locktable.OwnerRef) Decision {
	grace := encounterGrace
	if self.Point == PointCommit {
		grace = commitGrace
	}
	if self.Waited < grace {
		return Wait
	}
	return AbortSelf
}

// OnAbort implements Policy with the classic deterministic backoff.
func (Suicide) OnAbort(self *Self) int { return classicBackoff(self.Aborts) }

// OnCommit implements Policy (stateless).
func (Suicide) OnCommit(*Self) {}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

// Backoff resolves like Suicide but spaces retries with randomized
// exponential backoff: the yield count is drawn uniformly from a window
// that doubles with every abort, so two transactions that keep losing
// to each other de-synchronize instead of re-colliding in lock-step —
// the failure mode the deterministic aborts·8 loop cannot break. The
// zero value is ready to use.
type Backoff struct{}

// backoffCap bounds the randomized window (in scheduler yields).
const backoffCap = 1024

// Name implements Policy.
func (Backoff) Name() string { return KindBackoff.String() }

// OnConflict implements Policy: Suicide's decisions.
func (Backoff) OnConflict(self *Self, owner *locktable.OwnerRef) Decision {
	return Suicide{}.OnConflict(self, owner)
}

// OnAbort implements Policy: a uniform draw from [0, min(8·2^aborts,
// backoffCap)).
func (Backoff) OnAbort(self *Self) int { return randomizedBackoff(self) }

// randomizedBackoff draws a uniform yield count from a window that
// doubles with every abort. Shared by Backoff and Karma: any policy
// whose conflicts can kill BOTH sides of a cycle needs randomized
// restart spacing, or the two victims relaunch in lockstep and re-kill
// each other forever.
func randomizedBackoff(self *Self) int {
	shift := self.Aborts
	if shift > 7 {
		shift = 7
	}
	window := min(uint64(8)<<shift, backoffCap)
	if self.Probe == nil {
		return int(window / 2)
	}
	return int(self.Probe.rand() % window)
}

// OnCommit implements Policy (stateless).
func (Backoff) OnCommit(*Self) {}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

// PoliteWrites is the two-phase threshold: a transaction that has
// performed at most this many writes stays in the polite phase (it
// backs off by aborting itself, never aborting others). Beyond it the
// transaction acquires a greedy timestamp. SwissTM uses a small
// constant for the same purpose.
const PoliteWrites = 10

// PoliteDefeats bounds how many conflicts a transaction may lose while
// polite; past it the transaction escalates to the greedy phase even if
// small. Without this bound, two small transactions whose earlier tasks
// hold each other's next write lock would abort themselves forever
// (circular wait) — the escalation gives one of them a timestamp and
// breaks the cycle, which is the point of SwissTM's two-phase design.
const PoliteDefeats = 1

// Greedy is SwissTM's two-phase greedy contention manager: small
// transactions are polite (self-abort), escalated ones carry a
// seniority timestamp and older beats younger. One instance is shared
// by all transactions of a runtime; the zero value is ready to use.
//
// The greedy-phase ordering comes from its own clock.GV4 — the padded
// fetch-and-add type the commit clock is — so both orderings in the
// system (commit serialization and conflict seniority) are built from
// one primitive. Seniority timestamps must be unique (two transactions
// sharing one would deadlock the tie), which GV4's fetch-and-add
// guarantees.
type Greedy struct {
	clock clock.GV4
}

// Name implements Policy.
func (g *Greedy) Name() string { return KindGreedy.String() }

// MakeGreedy assigns ts a greedy timestamp if it does not have one yet.
// Lower timestamps are older and win subsequent conflicts. The
// timestamp slot is shared by all tasks of a user-transaction.
func (g *Greedy) MakeGreedy(ts *atomic.Uint64) {
	if ts.Load() == 0 {
		ts.CompareAndSwap(0, g.clock.Tick(nil))
	}
}

// OnConflict implements Policy: two-phase greedy.
func (g *Greedy) OnConflict(self *Self, owner *locktable.OwnerRef) Decision {
	var my uint64
	if self.Timestamp != nil {
		my = self.Timestamp.Load()
	}
	if my == 0 && self.Writes <= PoliteWrites && self.Defeats < PoliteDefeats {
		// Phase one: be polite, retry on our own dime.
		return AbortSelf
	}
	if my == 0 {
		if self.Timestamp == nil {
			// No slot to escalate into (anonymous-lock runtime): claim
			// the lock; Resolve bounds the wait for the unseeable owner.
			return AbortOwner
		}
		g.MakeGreedy(self.Timestamp)
		my = self.Timestamp.Load()
	}
	if owner == nil {
		return AbortOwner
	}
	// The owner header may belong to a recycled descriptor; the atomic
	// pointer hands us the slot of whatever transaction owns it *now*,
	// which is the one a signalled abort would hit.
	var their uint64
	if slot := owner.Timestamp.Load(); slot != nil {
		their = slot.Load()
	}
	if their == 0 {
		// Owner is still polite; a greedy transaction beats it.
		return AbortOwner
	}
	if my < their {
		return AbortOwner
	}
	return AbortSelf
}

// OnAbort implements Policy with the classic deterministic backoff.
func (g *Greedy) OnAbort(self *Self) int { return classicBackoff(self.Aborts) }

// OnCommit implements Policy (the seniority slot is reset by the
// runtime at transaction start; nothing to do here).
func (g *Greedy) OnCommit(*Self) {}

// ---------------------------------------------------------------------------
// Karma
// ---------------------------------------------------------------------------

// karmaMaxDeference bounds how many rounds a low-karma transaction
// defers to a higher-karma owner before claiming the lock anyway —
// Karma's "pay your dues, then push through" rule (Scherer & Scott).
const karmaMaxDeference = 64

// Karma is work-based priority: a transaction's karma is the work it
// has invested (writes buffered this attempt plus writes lost to every
// earlier aborted attempt, carried in the probe). Higher karma claims
// the lock; lower karma defers one round per point of deficit, then
// claims anyway (Scherer & Scott's push-through rule); commit resets
// the account. Ties are broken by coin flip — both sides see identical
// priorities, so only randomness can break the symmetry.
//
// The push-through rule means a lock CYCLE can kill both of its
// members in the same round (each eventually claims the other's lock),
// so Karma's liveness rests on its randomized restart backoff
// (OnAbort): the victims relaunch at different times and the earlier
// one commits uncontended. A deterministic backoff would replay the
// mutual kill in lockstep forever. The zero value is ready to use.
type Karma struct{}

// Name implements Policy.
func (*Karma) Name() string { return KindKarma.String() }

// karmaOf computes the requester's current priority (always ≥ 1 so a
// published priority is distinguishable from an empty slot).
func karmaOf(self *Self) uint64 {
	k := uint64(self.Writes) + 1
	if self.Probe != nil {
		k += self.Probe.karma
	}
	return k
}

// OnConflict implements Policy.
func (*Karma) OnConflict(self *Self, owner *locktable.OwnerRef) Decision {
	my := karmaOf(self)
	if self.Timestamp != nil {
		// Publish our priority so the owner's own conflicts see it.
		self.Timestamp.Store(my)
	}
	var their uint64
	if owner != nil {
		if slot := owner.Timestamp.Load(); slot != nil {
			their = slot.Load()
		}
	}
	switch {
	case my > their:
		return AbortOwner
	case my < their:
		// In deficit: defer one round per karma point we are short,
		// then claim the lock anyway.
		if uint64(self.Waited) < min(their-my, karmaMaxDeference) {
			return Wait
		}
		return AbortOwner
	default:
		if self.Probe == nil {
			return AbortSelf
		}
		if self.Probe.rand()&1 == 0 {
			return AbortSelf
		}
		return AbortOwner
	}
}

// OnAbort implements Policy: carry the lost work forward as karma, then
// back off by a randomized window (see the type docs: liveness).
func (*Karma) OnAbort(self *Self) int {
	if self.Probe != nil {
		self.Probe.karma += uint64(self.Writes) + 1
	}
	return randomizedBackoff(self)
}

// OnCommit implements Policy: the account is settled.
func (*Karma) OnCommit(self *Self) {
	if self.Probe != nil {
		self.Probe.karma = 0
	}
}

// ---------------------------------------------------------------------------
// TaskAware
// ---------------------------------------------------------------------------

// TaskAware is TLSTM's inter-thread policy (paper Alg. 2,
// cm-should-abort) as a decorator: on a conflict between transactions
// with task progress information, abort the more speculative one — the
// transaction whose thread has completed fewer of its tasks. Progress
// ties (and conflicts with runtimes that expose no progress) fall
// through to the wrapped base policy, so the paper's rule composes with
// any of the flat policies above.
type TaskAware struct {
	// Base resolves progress ties. New(KindTaskAware) wires a Greedy,
	// reproducing the paper's configuration.
	Base Policy
}

// Name implements Policy.
func (t *TaskAware) Name() string { return KindTaskAware.String() }

// OnConflict implements Policy.
func (t *TaskAware) OnConflict(self *Self, owner *locktable.OwnerRef) Decision {
	if owner != nil && owner.CompletedTask != nil {
		selfProgress := self.Progress()
		ownerProgress := owner.CompletedTask.Load() - owner.StartSerial.Load()
		switch {
		case selfProgress > ownerProgress:
			return AbortOwner
		case selfProgress < ownerProgress:
			return AbortSelf
		}
	}
	return t.Base.OnConflict(self, owner)
}

// OnAbort implements Policy (delegated).
func (t *TaskAware) OnAbort(self *Self) int { return t.Base.OnAbort(self) }

// OnCommit implements Policy (delegated).
func (t *TaskAware) OnCommit(self *Self) { t.Base.OnCommit(self) }

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Kind names a built-in policy. The zero value, KindDefault, stands for
// "whatever the runtime's own default is" — New maps it to nil, and the
// runtimes treat a nil Policy as their historical behavior (greedy for
// SwissTM, task-aware greedy for TLSTM, suicide for TL2 and the
// write-through STM).
type Kind int

const (
	// KindDefault selects the runtime's own default policy.
	KindDefault Kind = iota
	// KindSuicide is pure self-abort (TL2/wtstm's historical behavior).
	KindSuicide
	// KindBackoff is self-abort with randomized exponential backoff.
	KindBackoff
	// KindGreedy is SwissTM's two-phase greedy manager.
	KindGreedy
	// KindKarma is work-based priority accumulated across restarts.
	KindKarma
	// KindTaskAware is the paper's Alg. 2 rule over a greedy base.
	KindTaskAware
)

// Kinds lists every concrete built-in policy, in flag order (the
// sweepable set; KindDefault is deliberately absent).
func Kinds() []Kind {
	return []Kind{KindSuicide, KindBackoff, KindGreedy, KindKarma, KindTaskAware}
}

// String returns the flag/label name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDefault:
		return "default"
	case KindSuicide:
		return "suicide"
	case KindBackoff:
		return "backoff"
	case KindGreedy:
		return "greedy"
	case KindKarma:
		return "karma"
	case KindTaskAware:
		return "taskaware"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parse maps a flag name to its Kind ("default" selects the runtime's
// own default policy).
func Parse(name string) (Kind, error) {
	if name == KindDefault.String() {
		return KindDefault, nil
	}
	for _, k := range Kinds() {
		if name == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cm: unknown policy %q (want suicide, backoff, greedy, karma, taskaware or default)", name)
}

// New returns a fresh instance of the kind's policy. KindDefault
// returns nil: the runtimes interpret a nil Policy as their own
// default. Policies hold per-runtime state (Greedy's seniority clock),
// so do not share one instance across runtimes.
func New(k Kind) Policy {
	switch k {
	case KindSuicide:
		return Suicide{}
	case KindBackoff:
		return Backoff{}
	case KindGreedy:
		return &Greedy{}
	case KindKarma:
		return &Karma{}
	case KindTaskAware:
		return &TaskAware{Base: &Greedy{}}
	default:
		return nil
	}
}

var (
	_ Policy = Suicide{}
	_ Policy = Backoff{}
	_ Policy = (*Greedy)(nil)
	_ Policy = (*Karma)(nil)
	_ Policy = (*TaskAware)(nil)
)

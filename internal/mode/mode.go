// Package mode holds the runtimes' two execution rungs and the Retry
// registry they share.
//
//   - Policy: a runtime runs every transaction speculatively (the
//     default) or every transaction serialized under its Gate. The
//     policy is per runtime, so gated and speculative transactions
//     never meet.
//
//   - Gate: the serialized rung's lock. Serialized transactions still
//     run the full STM protocol under it — locks, validation, commit
//     clock — so opacity is preserved by construction; the gate only
//     orders the transactions against each other.
//
//   - WaitHub: the Retry/Wait (cond-var) registry. A transaction whose
//     predicate fails subscribes a read-set fingerprint, re-validates
//     its reads (the lost-wakeup guard), and parks on a one-token
//     doorbell; a committing writer whose write set intersects the
//     fingerprint wakes it. The commit path pays one atomic load when
//     no one waits.
package mode

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Policy selects a runtime's execution rung.
type Policy int

const (
	// Speculative always runs optimistically. The default.
	Speculative Policy = iota
	// Adaptive is a former policy, kept only so the benchmark module
	// (bench/) still compiles; runtimes run it as Speculative and Parse
	// rejects it. It goes with the benchmark schema's next bump
	// (ROADMAP item 1(c)).
	Adaptive
	// Serial always serializes transactions through the runtime's gate,
	// a baseline for conflict storms and for tests.
	Serial
)

// String names the policy for flags and labels.
func (p Policy) String() string {
	switch p {
	case Speculative:
		return "spec"
	case Adaptive:
		return "adaptive"
	case Serial:
		return "serial"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Parse resolves a policy name from a flag.
func Parse(s string) (Policy, error) {
	switch s {
	case "spec", "speculative", "":
		return Speculative, nil
	case "serial":
		return Serial, nil
	default:
		return 0, fmt.Errorf("unknown execution-mode policy %q (want %s)", s, strings.Join(Names(), ", "))
	}
}

// Names lists the policy names accepted by Parse, sweep order.
func Names() []string { return []string{"spec", "serial"} }

// Policies lists the policies in sweep order.
func Policies() []Policy { return []Policy{Speculative, Serial} }

// Config selects a runtime's rung.
type Config struct {
	Policy Policy
}

// Controller and NewController are what is left of the former adaptive
// mode controller, kept only because the benchmark module (bench/)
// prices OnOutcome. Both go with the benchmark schema's next bump
// (ROADMAP item 1(c)).
type Controller struct{}

// NewController returns the stub controller.
func NewController(Config) Controller { return Controller{} }

// OnOutcome reports no mode shift: there is no ladder to shift.
func (*Controller) OnOutcome(aborts uint64, defeated bool) (fellBack, recovered bool) {
	return false, false
}

// Gate is the serialized rung's lock, one per runtime. It is not
// owner-tracked: a transaction may take it on one goroutine and release
// it on another (a Retry park releases it wherever the task runs).
type Gate struct {
	mu sync.Mutex
}

// Enter acquires the gate.
func (g *Gate) Enter() { g.mu.Lock() }

// Exit releases the gate.
func (g *Gate) Exit() { g.mu.Unlock() }

// Fingerprint is a 64-bit bloom filter over lock-pair identities: the
// read set of a parked waiter, the write set of a notifying committer.
// A shared bit is necessary for a true intersection, so false positives
// cost only a spurious wake and false negatives cannot occur — both
// sides hash the same pointer.
type Fingerprint uint64

// FPAdd folds one lock-pair identity (its pointer) into fp.
func FPAdd(fp Fingerprint, key uintptr) Fingerprint {
	h := uint64(key) * 0x9e3779b97f4a7c15 // Fibonacci mix, top bits well-stirred
	return fp | 1<<(h>>58)
}

// Waiter is one thread's parking slot in a WaitHub, embedded in the
// owning worker/task so the park path allocates only once (the bell).
type Waiter struct {
	fp     Fingerprint
	bell   chan struct{}
	queued bool
}

// WaitHub is one runtime's Retry registry. The commit-side fast path is
// a single atomic load (Active); everything else happens under the
// registry mutex on the cold park/wake paths.
type WaitHub struct {
	active  atomic.Int32
	mu      sync.Mutex
	waiters map[*Waiter]struct{}
}

// NewWaitHub builds an empty registry.
func NewWaitHub() *WaitHub {
	return &WaitHub{waiters: make(map[*Waiter]struct{})}
}

// Active reports whether any waiter is subscribed. Commit paths gate
// fingerprint computation and Notify on it.
func (h *WaitHub) Active() bool { return h.active.Load() != 0 }

// Subscribe registers w with a read-set fingerprint. The caller must
// then re-validate its read set before parking: a conflicting commit
// that published before this call is visible to that validation, and
// one that publishes after it will find w registered — no lost wakeup
// (the operations on the active counter and the lock-pair versions are
// all sequentially consistent atomics).
func (h *WaitHub) Subscribe(w *Waiter, fp Fingerprint) {
	if w.bell == nil {
		w.bell = make(chan struct{}, 1)
	}
	// Drain a stale token from an earlier aborted subscription so Park
	// cannot return spuriously on it.
	select {
	case <-w.bell:
	default:
	}
	w.fp = fp
	h.mu.Lock()
	h.waiters[w] = struct{}{}
	w.queued = true
	h.mu.Unlock()
	h.active.Add(1)
}

// Unsubscribe removes w (idempotent).
func (h *WaitHub) Unsubscribe(w *Waiter) {
	h.mu.Lock()
	if w.queued {
		delete(h.waiters, w)
		w.queued = false
		h.mu.Unlock()
		h.active.Add(-1)
		return
	}
	h.mu.Unlock()
}

// Park blocks until a conflicting commit (or WakeAll) rings w's bell.
// The caller must have subscribed and re-validated first.
func (w *Waiter) Park() { <-w.bell }

// Notify wakes every waiter whose fingerprint intersects fp. Called by
// committers after publishing, only when Active reported waiters.
func (h *WaitHub) Notify(fp Fingerprint) {
	h.mu.Lock()
	for w := range h.waiters {
		if w.fp&fp != 0 {
			select {
			case w.bell <- struct{}{}:
			default:
			}
		}
	}
	h.mu.Unlock()
}

// WakeAll rings every bell regardless of fingerprints — the safety
// valve for shutdown paths.
func (h *WaitHub) WakeAll() {
	h.mu.Lock()
	for w := range h.waiters {
		select {
		case w.bell <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
}

// Package sched is the speculative-task scheduler of the TLSTM runtime:
// the machinery that turns "start a task" from a goroutine spawn plus a
// handful of allocations into a store to a recycled descriptor slot and
// a wake of a long-lived worker.
//
// The TM literature is blunt that for short transactions the runtime's
// own overhead — descriptor allocation, thread hand-off, completion
// signalling — bounds throughput long before validation does, and that
// pinning work to long-lived workers is the lever for locality. This
// package owns exactly that layer, decoupled from the transactional
// semantics in internal/core:
//
//   - Pool: per user-thread, a ring of SPECDEPTH execution slots, each
//     backed by one lazily-spawned, long-lived worker goroutine. The
//     submitting goroutine arms a slot (the descriptor for that slot
//     has already been prepared in place); the slot's worker runs it
//     and parks again. Workers park on a one-token doorbell channel
//     after a short spin, so an idle thread costs nothing and a busy
//     one never pays a futex round-trip per task. The submitter may
//     instead run an idle slot's descriptor itself (RunHere): that is
//     how a transaction's least-speculative head task stays on the
//     goroutine that holds its inputs, and a one-task transaction pays
//     no hand-off at all.
//
//   - Latch: a reusable, sequence-numbered completion latch that
//     replaces the per-transaction `done` channel. Completions publish
//     a monotonically increasing serial; waiters block until the serial
//     they hold is reached. Because serials are never reused, a latch
//     wait is immune to the ABA hazard that recycling descriptors
//     introduces everywhere pointer identity used to be the token.
//
//   - Policy: what an asynchronous submission does. Pooled (the
//     default) arms every task on the worker ring and returns, so
//     submissions pipeline; Inline makes every submission synchronous —
//     head on the submitter, tail on the workers. The pool has no policy
//     branch: choosing Arm or RunHere per task is its owner's job.
//
// A Pool is owned by a single submitting goroutine: Arm, RunHere and
// WaitIdle must only be called from it. A slot's descriptor may be run
// by its worker in one generation and by the owner in the next; it
// changes hands only across the idle store / WaitIdle acquire and the
// Arm release / worker's armed load. Close may be called from any
// goroutine once the owner has quiesced.
package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Policy selects what an asynchronous submission (core's Submit) does;
// the synchronous entry (Atomic) always runs the head on the caller.
type Policy int

const (
	// Pooled dispatches every task of a submission to the ring of
	// long-lived worker goroutines (one per slot, spawned lazily on
	// first use) and returns. This is the default: transactions of one
	// user-thread pipeline with each other and with the submitter.
	Pooled Policy = iota
	// Inline makes every submission synchronous: the transaction's
	// first task runs on the submitting goroutine, the rest on workers,
	// and the submission returns after the commit. At SPECDEPTH 1 no
	// worker is ever spawned.
	Inline
)

// String names the policy for flags and labels.
func (p Policy) String() string {
	switch p {
	case Pooled:
		return "pooled"
	case Inline:
		return "inline"
	default:
		return "unknown"
	}
}

// slot states. A slot cycles idle → armed (submitter) → idle (worker,
// after the run function returns); it stays idle while the submitter
// runs it itself.
const (
	slotIdle uint32 = iota
	slotArmed
)

// workerSpin is how many cooperative yields a worker burns waiting for
// new work before parking on its doorbell, and likewise how many a
// WaitIdle caller burns before starting to yield unconditionally. On
// the steady state of a pipelined thread the next task arrives within a
// few yields, so parking — a full futex round-trip — is the exception.
const workerSpin = 32

// slot is one execution slot of the ring.
type slot struct {
	// state is slotIdle or slotArmed. The submitter's idle→armed store
	// publishes the descriptor prepared for this slot (release); the
	// worker's load observes it (acquire).
	state atomic.Uint32
	// gen counts runs of this slot (Arm or RunHere): the slot's
	// descriptor-generation stamp. Generation 1 is the first use; every
	// later generation is a descriptor reuse. Written by the submitter
	// only.
	gen uint64
	// spawned records whether this slot's worker goroutine exists.
	// Written by the submitter only.
	spawned bool
	// bell is the worker's parking doorbell: one token, sent by the
	// submitter after arming, closed by Close. Spurious tokens are
	// harmless (the worker re-checks state after every receive).
	bell chan struct{}
}

// Pool is the per-thread scheduler instance: a ring of slots and their
// workers.
type Pool struct {
	run   func(slot int)
	slots []slot

	closed  atomic.Bool
	workers sync.WaitGroup
	closeMu sync.Mutex // serializes Close; guards closedDone
	drained bool

	spawnedCount int // submitter-owned counter of workers spawned

	// label, when set, tags every worker goroutine spawned afterwards
	// with pprof labels, so CPU and goroutine profiles attribute samples
	// to the owning user-thread instead of an anonymous pool.
	label string
}

// New creates a pool of n execution slots whose prepared descriptors
// are executed by run(slot): on the slot's worker goroutine after Arm,
// on the calling goroutine in RunHere. A panic out of run is the
// caller's contract violation: on a worker it crashes the process (as a
// crashed spawned goroutine would have before pooling); out of RunHere
// it propagates to the owner, the slot idle as it was throughout. The
// policy is the owner's business and ignored here; the parameter stays
// because bench/ constructs pools with it.
func New(n int, _ Policy, run func(slot int)) *Pool {
	p := &Pool{run: run, slots: make([]slot, n)}
	for i := range p.slots {
		p.slots[i].bell = make(chan struct{}, 1)
	}
	return p
}

// SetLabel names the pool in runtime profiles: every worker spawned
// after the call carries the pprof labels {"sched_pool": name,
// "sched_slot": <i>}. Submitter-owned like Arm; call it before the
// first Arm so every worker is tagged. An empty name (the default)
// spawns unlabeled workers.
func (p *Pool) SetLabel(name string) { p.label = name }

// Slots reports the ring size.
func (p *Pool) Slots() int { return len(p.slots) }

// Arm hands slot i's prepared descriptor to its worker. The slot must
// be idle — the caller observes that through WaitIdle — and the
// descriptor must be fully initialized before Arm: the armed store is
// the publication point. It reports whether a new worker goroutine was
// spawned by this call.
func (p *Pool) Arm(i int) (spawnedWorker bool) {
	s := &p.slots[i]
	s.gen++
	if !s.spawned {
		s.spawned = true
		p.spawnedCount++
		spawnedWorker = true
		p.workers.Add(1)
		go p.workerEntry(i)
	}
	s.state.Store(slotArmed)
	// One token at most is ever outstanding: the worker drains stale
	// tokens and re-checks state, so a skipped send (full buffer) still
	// wakes it.
	select {
	case s.bell <- struct{}{}:
	default:
	}
	return spawnedWorker
}

// RunHere runs slot i's prepared descriptor on the calling (owner)
// goroutine and stamps the generation like Arm. The slot must be idle,
// as for Arm, and stays idle: its worker, if one exists, keeps sleeping,
// and the WaitIdle that preceded the call is the acquire that handed the
// descriptor over from whichever goroutine ran it last.
func (p *Pool) RunHere(i int) {
	p.slots[i].gen++
	p.run(i)
}

// WaitIdle blocks until slot i's previous task has finished (its run
// function returned). The returning worker's idle store is the release
// that makes every write of the finished task visible to the caller.
func (p *Pool) WaitIdle(i int) {
	s := &p.slots[i]
	for s.state.Load() != slotIdle {
		runtime.Gosched()
	}
}

// Generation reports how many times slot i has been run. Generations
// are the scheduler's descriptor-reuse stamps: serial numbers handed to
// slot i are gen, gen+ring, gen+2·ring, … so a generation uniquely
// names one descriptor incarnation.
func (p *Pool) Generation(i int) uint64 { return p.slots[i].gen }

// WorkersSpawned reports how many worker goroutines this pool has
// created so far. Submitter-owned, like Arm.
func (p *Pool) WorkersSpawned() int { return p.spawnedCount }

// workerEntry is the spawned goroutine's entry point: apply the pool's
// pprof labels (if any), then run the worker loop.
func (p *Pool) workerEntry(i int) {
	if p.label == "" {
		p.worker(i)
		return
	}
	pprof.Do(context.Background(),
		pprof.Labels("sched_pool", p.label, "sched_slot", strconv.Itoa(i)),
		func(context.Context) { p.worker(i) })
}

// worker is the long-lived execution loop for slot i: run the armed
// descriptor, mark the slot idle, park until the next arm.
func (p *Pool) worker(i int) {
	defer p.workers.Done()
	s := &p.slots[i]
	spin := 0
	for {
		if s.state.Load() == slotArmed {
			p.run(i)
			s.state.Store(slotIdle)
			spin = 0
			continue
		}
		if p.closed.Load() {
			return
		}
		if spin < workerSpin {
			spin++
			runtime.Gosched()
			continue
		}
		// Park. A doorbell token (or the closed channel) wakes us; the
		// loop re-checks state, so stale tokens are harmless.
		<-s.bell
		spin = 0
	}
}

// Close drains the pool: it waits for every armed slot to finish its
// task, then parks no more — all worker goroutines exit and are joined.
// The owner must have stopped arming (for TLSTM: every thread Synced)
// before Close; arming after Close panics. Close is idempotent and safe
// to call from a goroutine other than the owner once the owner has
// quiesced.
func (p *Pool) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.drained {
		return
	}
	p.drained = true
	p.closed.Store(true)
	for i := range p.slots {
		close(p.slots[i].bell) // wake parked workers; they see closed and exit
	}
	p.workers.Wait()
}

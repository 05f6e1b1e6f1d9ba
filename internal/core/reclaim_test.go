package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tlstm/internal/tm"
	"tlstm/internal/xrand"
)

// Reclamation conformance suite: the tests that make epoch-based entry
// reclamation trustworthy. The hazard is ABA on validate-task's pointer
// identity — a write-lock entry recycled and re-installed on the same
// pair while a task still holds it as a txlog.ReadEntry.FirstPast
// marker would let a stale read revalidate falsely. The property test
// drives the invariant checker (Config.ReclaimAudit) through contended,
// abort-heavy pipelines under both ring configurations; the directed
// test stages the ABA scenario by hand and proves the quiescence gate
// degrades it to a spurious abort, never a false pass.

// TestReclaimQuiescenceInvariant is the property test: no entry is ever
// recycled while any task's read horizon is below its retirement epoch.
// Every recycle is audited (Config.ReclaimAudit panics on violation)
// while 3 threads × depth-4 transactions hammer a small account array —
// plenty of WAW restarts, CM defeats and whole-transaction aborts, so
// entries retire through all three retirement sites. Runs under -race
// in CI, where a broken horizon would additionally surface as a data
// race on the recycled entry's plain fields. Both ring configurations
// are exercised: unbounded (the production default) and the aggressive
// single-slot ring that recycles on almost every commit.
func TestReclaimQuiescenceInvariant(t *testing.T) {
	const (
		threads     = 3
		depth       = 4
		accounts    = 32
		txPerThread = 1200
		initial     = 1_000_000
	)
	for _, ring := range []int{0, 1} {
		rt := New(Config{SpecDepth: depth, LockTableBits: 12, ReclaimRing: ring, ReclaimAudit: true})
		d := rt.Direct()
		base := d.Alloc(accounts)
		for i := 0; i < accounts; i++ {
			d.Store(base+tm.Addr(i), initial)
		}

		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			thr := rt.NewThread()
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := seed
				next := func() uint64 { return xrand.Splitmix(&rng) }
				for i := 0; i < txPerThread; i++ {
					// A transaction of `depth` tasks moving money along
					// a random cycle (the stress soak's workload shape).
					idx := make([]tm.Addr, depth+1)
					for j := range idx {
						idx[j] = base + tm.Addr(next()%accounts)
					}
					amt := next() % 100
					fns := make([]TaskFunc, depth)
					for j := 0; j < depth; j++ {
						from, to := idx[j], idx[j+1]
						fns[j] = func(tk *Task) {
							f := tk.Load(from)
							if from != to && f >= amt {
								tk.Store(from, f-amt)
								tk.Store(to, tk.Load(to)+amt)
							}
						}
					}
					if err := thr.shipAtomic(fns...); err != nil {
						t.Error(err)
						return
					}
				}
				thr.Sync()
			}(uint64(w + 1))
		}
		wg.Wait()

		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += d.Load(base + tm.Addr(i))
		}
		if want := uint64(accounts) * initial; sum != want {
			t.Fatalf("ring=%d: total = %d, want %d (atomicity violated)", ring, sum, want)
		}
		st := rt.Stats()
		if st.EntryReclaims == 0 {
			t.Fatalf("ring=%d: EntryReclaims = 0 — the audit never saw a recycle, the property test proved nothing", ring)
		}
		rt.Close()
	}
}

// TestReclaimABADirectedSpuriousAbortOnly stages the textbook ABA
// scenario by hand and asserts the reclamation design contains it:
//
//  1. transaction 1's first task installs entry E on a pair and
//     completes, while the transaction is held open;
//  2. a speculating reader B of transaction 2 records E as its
//     FirstPast chain-identity marker, then parks mid-attempt;
//  3. transaction 1 commits: E is detached and retired — but B, still
//     parked on the stale pointer, keeps the quiescence horizon below
//     E's retirement serial, so E must NOT be recycled;
//  4. a writer task C of transaction 3 (running on E's own descriptor,
//     the only context that could ever reuse E) write-locks the same
//     pair: the ring must stall and hand it a fresh entry instead;
//  5. B wakes and revalidates: the worst permitted outcome is a
//     spurious abort (the chain changed under it), never a false pass —
//     B re-runs and its committed read still observes transaction 1's
//     value.
//
// Afterwards the pipeline drains and E's descriptor writes again: now
// the horizon has passed and E is reclaimed for real (the "quiescent →
// reused" tail of the entry lifecycle).
func TestReclaimABADirectedSpuriousAbortOnly(t *testing.T) {
	const depth = 3
	rt := New(Config{SpecDepth: depth, LockTableBits: 12, ReclaimAudit: true})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	addr := d.Alloc(1)
	pair := rt.locks.For(addr)

	var holdTx1, bParked, bRelease atomic.Bool
	var bRuns atomic.Int32
	var bCommittedRead atomic.Uint64

	holdTx1.Store(true)
	// tx1: serial 1 writes the pair (installing E), serial 2 holds the
	// transaction open so E stays installed while B reads it.
	h1, err := thr.Submit(
		func(tk *Task) { tk.Store(addr, 100) },
		func(tk *Task) {
			for holdTx1.Load() {
				runtime.Gosched()
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	// tx2: B (serial 3) waits for the writer to complete, reads the
	// pair — recording FirstPast = E — and parks mid-attempt.
	h2, err := thr.Submit(func(tk *Task) {
		for thr.completedTask.Load() < 1 {
			runtime.Gosched() // let serial 1 complete so E becomes readable past state
		}
		v := tk.Load(addr)
		bCommittedRead.Store(v)
		if bRuns.Add(1) == 1 {
			bParked.Store(true)
			for !bRelease.Load() {
				runtime.Gosched()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for !bParked.Load() {
		runtime.Gosched()
	}
	e := pair.W.Load()
	if e == nil || e.Serial != 1 {
		t.Fatalf("setup: expected serial-1 entry installed on the pair, got %+v", e)
	}
	if got := bCommittedRead.Load(); got != 100 {
		t.Fatalf("setup: B's speculative read = %d, want 100 (served from E)", got)
	}

	// Commit tx1: E is detached and retired. B still parks on the stale
	// pointer, pinning the committed frontier at 2 — below E's
	// retirement serial (startSerial-1+depth = 3) — so E must stay
	// quiescing.
	holdTx1.Store(false)
	h1.Wait()

	// tx3: C (serial 4) runs on E's own descriptor (slot 4%3 = 1%3) —
	// the only context whose ring holds E. Its write to the same pair
	// must be served a fresh entry (a horizon stall), not E.
	h3, err := thr.Submit(func(tk *Task) { tk.Store(addr, 200) })
	if err != nil {
		t.Fatal(err)
	}
	var e2 = pair.W.Load()
	for e2 == nil {
		runtime.Gosched()
		e2 = pair.W.Load()
	}
	if e2 == e {
		t.Fatal("ABA: entry E was recycled and re-installed while a parked reader still held it as FirstPast")
	}

	// Wake B: its validate-task must observe the chain change and
	// restart (spurious abort — its read was in fact still consistent),
	// and the re-run must still read transaction 1's committed value.
	bRelease.Store(true)
	h2.Wait()
	h3.Wait()
	thr.Sync()

	if runs := bRuns.Load(); runs < 2 {
		t.Fatalf("B ran %d attempt(s); the stale FirstPast must cost it at least one spurious restart", runs)
	}
	if got := bCommittedRead.Load(); got != 100 {
		t.Fatalf("B's committed read = %d, want 100 (a false-pass or lost serialization)", got)
	}
	if got := d.Load(addr); got != 200 {
		t.Fatalf("final memory = %d, want 200 (tx1 then tx3 in program order)", got)
	}
	st := thr.Stats()
	if st.RestartWAR == 0 {
		t.Fatal("expected B's spurious restart to be classified RestartWAR (validate-task failure)")
	}
	if st.HorizonStalls == 0 {
		t.Fatal("expected C's entry request to stall on the horizon (E still quiescing)")
	}
	if st.EntryReclaims != 0 {
		t.Fatalf("EntryReclaims = %d before quiescence; nothing may be recycled while B parks", st.EntryReclaims)
	}

	// Lifecycle tail: with the pipeline drained the frontier has passed
	// E's stamp; the next writes on E's descriptor reclaim it.
	for i := 0; i < 2*depth; i++ {
		if err := thr.Atomic(func(tk *Task) { tk.Store(addr, tk.Load(addr)+1) }); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	if st := thr.Stats(); st.EntryReclaims == 0 {
		t.Fatal("E (and tx3's entry) never reclaimed after quiescence")
	}
}

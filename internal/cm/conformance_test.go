package cm

import (
	"sync"
	"sync/atomic"
	"testing"

	"tlstm/internal/locktable"
)

// Shared conformance suite: every contention-management policy must
// satisfy the properties the runtimes' liveness arguments rest on. Run
// with -race: the ABA test doubles as the policies' concurrency
// hammering against recycled owner headers.

// conformancePolicies builds one fresh instance per policy.
func conformancePolicies() map[string]func() Policy {
	m := map[string]func() Policy{}
	for _, k := range Kinds() {
		k := k
		m[k.String()] = func() Policy { return New(k) }
	}
	return m
}

// TestConformance runs the full property set against all policies.
func TestConformance(t *testing.T) {
	for name, mk := range conformancePolicies() {
		t.Run(name, func(t *testing.T) {
			t.Run("DecisionTotality", func(t *testing.T) { conformTotality(t, mk()) })
			t.Run("BoundedWait", func(t *testing.T) { conformBoundedWait(t, mk()) })
			t.Run("CircularWaitTerminates", func(t *testing.T) { conformCircularWait(t, mk()) })
			t.Run("RecycledOwnerABA", func(t *testing.T) { conformABA(t, mk()) })
		})
	}
}

// conformTotality: across the whole input lattice — both conflict
// points, nil and real owners, polite and escalated requesters, fresh
// and long-waiting conflicts — Resolve returns exactly one of the three
// decisions, and never AbortOwner against an owner that cannot be
// signalled.
func conformTotality(t *testing.T, pol Policy) {
	owners := []*locktable.OwnerRef{nil, totOwner(0, 0, 0), totOwner(5, 2, 3)}
	for _, point := range []Point{PointEncounter, PointCommit} {
		for oi, owner := range owners {
			for _, writes := range []int{0, PoliteWrites + 5} {
				for _, defeats := range []int{0, PoliteDefeats, 4} {
					for _, waited := range []int{0, 1, nilOwnerPatience, 500} {
						self := &Self{
							Timestamp: &atomic.Uint64{},
							Probe:     &Probe{},
							Point:     point,
							Writes:    writes,
							Defeats:   defeats,
							Waited:    waited,
						}
						d := Resolve(pol, self, owner)
						if d != AbortSelf && d != AbortOwner && d != Wait {
							t.Fatalf("point=%v owner#%d writes=%d defeats=%d waited=%d: invalid decision %v",
								point, oi, writes, defeats, waited, d)
						}
						if owner == nil && d == AbortOwner {
							t.Fatalf("point=%v writes=%d defeats=%d waited=%d: AbortOwner against nil owner",
								point, writes, defeats, waited)
						}
					}
				}
			}
		}
	}
}

func totOwner(completed, start int64, ts uint64) *locktable.OwnerRef {
	var c atomic.Int64
	c.Store(completed)
	var t atomic.Uint64
	t.Store(ts)
	o := &locktable.OwnerRef{ThreadID: 1, CompletedTask: &c}
	o.StartSerial.Store(start)
	o.Timestamp.Store(&t)
	return o
}

// conformBoundedWait: against an owner that cannot be signalled (nil —
// the write-through STM's whole-lifetime anonymous locks), a fixed
// conflict may not be answered with Wait forever: within a bounded
// number of rounds the policy must abort the requester. Without this
// bound, two write-through transactions eagerly holding each other's
// next lock would deadlock.
func conformBoundedWait(t *testing.T, pol Policy) {
	const bound = 4096
	self := &Self{Timestamp: &atomic.Uint64{}, Probe: &Probe{}, Point: PointEncounter}
	for _, writes := range []int{0, PoliteWrites + 5} {
		self.Writes = writes
		for waited := 0; ; waited++ {
			if waited > bound {
				t.Fatalf("writes=%d: still Waiting after %d rounds against an unsignallable owner", writes, bound)
			}
			self.Waited = waited
			if Resolve(pol, self, nil) != Wait {
				break
			}
		}
	}
}

// conformCircularWait is the two-thread circular-wait regression: two
// transactions each hold a write lock the other needs (the paper's §3.2
// deadlock scenario, and the reason for the PoliteDefeats escalation in
// the two-phase greedy design). Each side repeatedly resolves its
// conflict, restarting with an incremented defeat count whenever it
// loses. The pair must terminate — one side commits — within a bounded
// number of rounds for EVERY policy: politeness escalates, seniority or
// task progress orders the pair, the self-abort policies yield.
func conformCircularWait(t *testing.T, pol Policy) {
	const maxRounds = 100_000

	type side struct {
		self    *Self
		abortTx atomic.Bool
		owner   *locktable.OwnerRef
	}
	mkSide := func(id int32) *side {
		s := &side{self: &Self{Timestamp: &atomic.Uint64{}, Probe: &Probe{}, Point: PointEncounter, Writes: 2}}
		var c atomic.Int64
		s.owner = &locktable.OwnerRef{ThreadID: id, CompletedTask: &c}
		s.owner.AbortTx.Store(&s.abortTx)
		s.owner.Timestamp.Store(s.self.Timestamp)
		return s
	}
	a, b := mkSide(1), mkSide(2)

	// step resolves one side's conflict against the other; it reports
	// whether the deadlock broke this round (someone aborted).
	step := func(self, other *side) bool {
		if self.abortTx.Load() {
			// Signalled by the other side: abort, restart politely.
			self.abortTx.Store(false)
			self.self.Defeats++
			self.self.Waited = 0
			return true
		}
		switch Resolve(pol, self.self, other.owner) {
		case AbortSelf:
			self.self.Defeats++
			self.self.Waited = 0
			return true
		case AbortOwner:
			other.abortTx.Store(true)
			self.self.Waited++
		case Wait:
			self.self.Waited++
		}
		return false
	}

	for round := 0; round < maxRounds; round++ {
		if step(a, b) || step(b, a) {
			return // the cycle broke: one side released its locks
		}
	}
	t.Fatalf("circular wait not resolved within %d rounds (defeats: %d vs %d)",
		maxRounds, a.self.Defeats, b.self.Defeats)
}

// conformABA: a policy reading a recycled descriptor's owner header
// must never crash or race while the owner is concurrently re-bound to
// a new transaction (locktable.OwnerRef.BindTx) — the runtimes recycle
// descriptors, so a stale entry pointer hands the policy whatever
// transaction owns the header *now*. Run under -race.
func conformABA(t *testing.T, pol Policy) {
	var completed atomic.Int64
	owner := &locktable.OwnerRef{ThreadID: 7, CompletedTask: &completed}
	var slotA, slotB atomic.Uint64
	var abortA, abortB atomic.Bool
	owner.BindTx(0, &abortA, &slotA)

	const iters = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Rebinder: recycles the owner between two transactions' slots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				slotB.Store(uint64(i + 1))
				owner.BindTx(int64(i), &abortB, &slotB)
			} else {
				slotA.Store(uint64(i + 1))
				owner.BindTx(int64(i), &abortA, &slotA)
			}
			completed.Store(int64(i))
		}
		close(stop)
	}()

	// Resolvers: keep deciding conflicts against the churning header.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := &Self{Timestamp: &atomic.Uint64{}, Probe: &Probe{}, Point: PointEncounter, Writes: PoliteWrites + 1}
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := Resolve(pol, self, owner)
				switch d {
				case AbortSelf:
					self.Defeats++
					self.Waited = 0
				case AbortOwner:
					// The slot we signal is whatever transaction owns
					// the header now — at worst a harmless spurious
					// abort, never a write to freed state.
					owner.AbortTx.Load().Store(true)
					self.Waited++
				case Wait:
					self.Waited++
				default:
					t.Errorf("invalid decision %v under recycling", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

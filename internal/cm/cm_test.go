package cm

import (
	"strings"
	"sync/atomic"
	"testing"

	"tlstm/internal/locktable"
)

// newOwner builds a cross-thread owner header with the given progress
// and priority, as the runtimes' lock entries would expose it.
func newOwner(completed, startSerial int64, ts uint64) *locktable.OwnerRef {
	var c atomic.Int64
	c.Store(completed)
	var t atomic.Uint64
	t.Store(ts)
	o := &locktable.OwnerRef{
		ThreadID:      1,
		CompletedTask: &c,
	}
	o.StartSerial.Store(startSerial)
	o.Timestamp.Store(&t)
	return o
}

// newSelf builds a requester with its own slot and probe.
func newSelf() *Self {
	return &Self{Timestamp: &atomic.Uint64{}, Probe: &Probe{}}
}

func TestSuicideGraceThenAbort(t *testing.T) {
	var s Suicide
	self := newSelf()

	self.Point = PointEncounter
	self.Waited = 0
	if d := s.OnConflict(self, nil); d != Wait {
		t.Fatalf("encounter round 0: got %v, want Wait (one grace yield)", d)
	}
	self.Waited = encounterGrace
	if d := s.OnConflict(self, nil); d != AbortSelf {
		t.Fatalf("encounter past grace: got %v, want AbortSelf", d)
	}

	self.Point = PointCommit
	self.Waited = commitGrace - 1
	if d := s.OnConflict(self, nil); d != Wait {
		t.Fatalf("commit-point round %d: got %v, want Wait (publish holds are short)", self.Waited, d)
	}
	self.Waited = commitGrace
	if d := s.OnConflict(self, nil); d != AbortSelf {
		t.Fatalf("commit-point past grace: got %v, want AbortSelf", d)
	}
}

func TestClassicBackoffShape(t *testing.T) {
	var s Suicide
	self := newSelf()
	for aborts, want := range map[uint64]int{0: 0, 1: 8, 4: 32, 100: 256} {
		self.Aborts = aborts
		if got := s.OnAbort(self); got != want {
			t.Fatalf("OnAbort(aborts=%d) = %d, want %d", aborts, got, want)
		}
	}
}

func TestBackoffRandomizedWithinWindow(t *testing.T) {
	var b Backoff
	self := newSelf()
	self.Aborts = 3
	window := 8 << 3
	distinct := map[int]bool{}
	for i := 0; i < 200; i++ {
		n := b.OnAbort(self)
		if n < 0 || n >= window {
			t.Fatalf("OnAbort(aborts=3) = %d, want in [0,%d)", n, window)
		}
		distinct[n] = true
	}
	if len(distinct) < 2 {
		t.Fatal("randomized backoff produced a constant; expected a spread")
	}
	// The window saturates instead of overflowing.
	self.Aborts = 63
	for i := 0; i < 50; i++ {
		if n := b.OnAbort(self); n < 0 || n >= backoffCap {
			t.Fatalf("OnAbort(aborts=63) = %d, want in [0,%d)", n, backoffCap)
		}
	}
}

func TestGreedyPolitePhaseAbortsSelf(t *testing.T) {
	var g Greedy
	self := newSelf()
	self.Writes = 1
	owner := newOwner(0, 0, 0)
	if d := g.OnConflict(self, owner); d != AbortSelf {
		t.Fatalf("polite requester should abort self, got %v", d)
	}
	if self.Timestamp.Load() != 0 {
		t.Fatal("polite requester must not acquire a timestamp")
	}
}

func TestGreedyOlderWins(t *testing.T) {
	var g Greedy
	var oldTS, youngTS atomic.Uint64
	g.MakeGreedy(&oldTS)
	g.MakeGreedy(&youngTS)
	if oldTS.Load() >= youngTS.Load() {
		t.Fatal("timestamps must be monotonically increasing")
	}

	older := &Self{Timestamp: &oldTS, Writes: PoliteWrites + 1}
	if d := g.OnConflict(older, newOwner(0, 0, youngTS.Load())); d != AbortOwner {
		t.Fatalf("older requester should beat younger owner, got %v", d)
	}
	younger := &Self{Timestamp: &youngTS, Writes: PoliteWrites + 1}
	if d := g.OnConflict(younger, newOwner(0, 0, oldTS.Load())); d != AbortSelf {
		t.Fatalf("younger requester should yield to older owner, got %v", d)
	}
}

func TestGreedyBeatsPoliteOwner(t *testing.T) {
	var g Greedy
	self := newSelf()
	self.Writes = PoliteWrites + 1
	owner := newOwner(0, 0, 0) // polite owner, no timestamp
	if d := g.OnConflict(self, owner); d != AbortOwner {
		t.Fatalf("greedy requester should beat polite owner, got %v", d)
	}
	if self.Timestamp.Load() == 0 {
		t.Fatal("requester past the polite threshold must become greedy")
	}
}

func TestGreedyDefeatEscalates(t *testing.T) {
	var g Greedy
	self := newSelf()
	self.Writes = 1 // small transaction
	self.Defeats = PoliteDefeats
	owner := newOwner(0, 0, 0)
	if d := g.OnConflict(self, owner); d != AbortOwner {
		t.Fatalf("requester past PoliteDefeats must escalate and beat a polite owner, got %v", d)
	}
	if self.Timestamp.Load() == 0 {
		t.Fatal("escalation must mint a greedy timestamp")
	}
}

func TestMakeGreedyIdempotent(t *testing.T) {
	var g Greedy
	var ts atomic.Uint64
	g.MakeGreedy(&ts)
	first := ts.Load()
	g.MakeGreedy(&ts)
	if ts.Load() != first {
		t.Fatal("MakeGreedy must not reassign an existing timestamp")
	}
}

// The paper's rule: abort the more speculative transaction — the one
// with fewer completed predecessor tasks (Alg. 2, cm-should-abort).
func TestTaskAwareProgressWins(t *testing.T) {
	ta := New(KindTaskAware).(*TaskAware)

	// Owner progress: completed 5, tx started at serial 4 → progress 1.
	owner := newOwner(5, 4, 0)

	// Requester progress 3 (completed 9, start 6): more progress → owner aborts.
	self := newSelf()
	self.Completed, self.Start = 9, 6
	if d := ta.OnConflict(self, owner); d != AbortOwner {
		t.Fatalf("less speculative requester must win, got %v", d)
	}
	// Requester progress 0: less progress → requester aborts.
	self.Completed, self.Start = 6, 6
	if d := ta.OnConflict(self, owner); d != AbortSelf {
		t.Fatalf("more speculative requester must lose, got %v", d)
	}
}

func TestTaskAwareTieFallsBackToBase(t *testing.T) {
	ta := New(KindTaskAware).(*TaskAware)
	g := &ta.Greedy

	self := newSelf()
	g.MakeGreedy(self.Timestamp)

	var ownerTS atomic.Uint64
	g.MakeGreedy(&ownerTS) // younger than self
	owner := newOwner(5, 4, ownerTS.Load())

	// Equal progress (1 vs 1): greedy tie-break, older requester wins.
	self.Completed, self.Start = 7, 6
	self.Writes = PoliteWrites + 1
	if d := ta.OnConflict(self, owner); d != AbortOwner {
		t.Fatalf("tie must fall back to greedy (older wins), got %v", d)
	}
}

func TestResolveDegradesNilOwnerAbortOwner(t *testing.T) {
	g := New(KindGreedy)
	self := newSelf()
	self.Writes = PoliteWrites + 1 // greedy phase → raw verdict AbortOwner

	self.Waited = 0
	if d := Resolve(g, self, nil); d != Wait {
		t.Fatalf("AbortOwner against nil owner must degrade to Wait, got %v", d)
	}
	self.Waited = nilOwnerPatience
	if d := Resolve(g, self, nil); d != AbortSelf {
		t.Fatalf("degraded wait must concede after patience, got %v", d)
	}
}

func TestResolveCountsDecisions(t *testing.T) {
	self := newSelf()
	self.Point = PointEncounter
	self.Waited = encounterGrace // past grace → AbortSelf
	if d := Resolve(Suicide{}, self, nil); d != AbortSelf {
		t.Fatalf("got %v, want AbortSelf", d)
	}
	self.Writes = PoliteWrites + 1
	if d := Resolve(New(KindGreedy), self, newOwner(0, 0, 0)); d != AbortOwner {
		t.Fatalf("got %v, want AbortOwner", d)
	}
	aSelf, aOwner, spins := self.Probe.TakeCounts()
	if aSelf != 1 || aOwner != 1 {
		t.Fatalf("counters = (%d,%d), want (1,1)", aSelf, aOwner)
	}
	if spins != 0 {
		t.Fatalf("spins = %d, want 0 (no backoff yet)", spins)
	}
	self.Aborts = 2
	n := AbortBackoff(Suicide{}, self)
	if _, _, spins := self.Probe.TakeCounts(); spins != uint64(n) {
		t.Fatalf("BackoffSpins = %d, want %d", spins, n)
	}
	if a, b, c := self.Probe.TakeCounts(); a != 0 || b != 0 || c != 0 {
		t.Fatal("TakeCounts must clear the counters")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = (%v, %v), want (%v, nil)", k.String(), got, err, k)
		}
		pol := New(k)
		if pol == nil {
			t.Fatalf("New(%v) = nil", k)
		}
		if pol.Name() != k.String() {
			t.Fatalf("New(%v).Name() = %q, want %q", k, pol.Name(), k.String())
		}
	}
	if k, err := Parse("default"); err != nil || k != KindDefault {
		t.Fatalf("Parse(default) = (%v, %v)", k, err)
	}
	if New(KindDefault) != nil {
		t.Fatal("New(KindDefault) must be nil (runtime's own default)")
	}
	// Karma is not a policy any more: its name is refused like any
	// unknown one, and the error names the four that are.
	for _, name := range []string{"nope", "karma"} {
		if _, err := Parse(name); err == nil ||
			!strings.Contains(err.Error(), "want suicide, backoff, greedy, taskaware or default") {
			t.Fatalf("Parse(%q) error = %v, want one naming the four policies", name, err)
		}
	}
}

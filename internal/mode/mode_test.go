package mode

import (
	"sync"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("Parse(%q) = %v, want %v", p.String(), got, p)
		}
	}
	for _, bad := range []string{"bogus", "adaptive"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse accepted %q", bad)
		}
	}
	if p, err := Parse("speculative"); err != nil || p != Speculative {
		t.Fatalf("Parse(speculative) = %v, %v", p, err)
	}
}

// TestControllerDisarmed: the stub controller the benchmark module
// prices never reports a mode shift, whatever the policy.
func TestControllerDisarmed(t *testing.T) {
	for _, p := range []Policy{Speculative, Adaptive, Serial} {
		c := NewController(Config{Policy: p})
		for i := 0; i < 1000; i++ {
			if fell, rec := c.OnOutcome(100, true); fell || rec {
				t.Fatalf("%v: stub controller reported a shift", p)
			}
		}
	}
}

func TestWaitHubNotifyByFingerprint(t *testing.T) {
	h := NewWaitHub()
	if h.Active() {
		t.Fatal("fresh hub active")
	}
	var a, b Waiter
	fpA := FPAdd(0, 0x1000)
	fpB := FPAdd(0, 0x2000)
	if fpA == fpB {
		t.Skip("fingerprint collision between test keys") // astronomically unlikely
	}
	h.Subscribe(&a, fpA)
	h.Subscribe(&b, fpB)
	if !h.Active() {
		t.Fatal("hub inactive with two waiters")
	}
	wokeA := make(chan struct{})
	go func() { a.Park(); close(wokeA) }()
	h.Notify(fpA)
	select {
	case <-wokeA:
	case <-time.After(5 * time.Second):
		t.Fatal("intersecting waiter not woken")
	}
	select {
	case <-b.bell:
		t.Fatal("disjoint waiter woken")
	default:
	}
	h.Unsubscribe(&a)
	h.Unsubscribe(&b)
	h.Unsubscribe(&b) // idempotent
	if h.Active() {
		t.Fatal("hub active after unsubscribes")
	}
}

func TestWaitHubStaleTokenDrained(t *testing.T) {
	h := NewWaitHub()
	var w Waiter
	fp := FPAdd(0, 0xabc)
	h.Subscribe(&w, fp)
	h.Notify(fp) // token delivered, but the waiter aborts instead of parking
	h.Unsubscribe(&w)
	h.Subscribe(&w, fp) // re-subscribe must drain the stale token
	select {
	case <-w.bell:
		t.Fatal("stale token survived re-subscription")
	default:
	}
	h.WakeAll()
	select {
	case <-w.bell:
	default:
		t.Fatal("WakeAll missed a waiter")
	}
	h.Unsubscribe(&w)
}

// TestWaitHubNoLostWakeup hammers the subscribe/validate/park vs
// publish/notify race: a "committer" flips an atomic-ish word and
// notifies; the waiter subscribes, validates the word, and parks only
// if unchanged. The waiter must always terminate.
func TestWaitHubNoLostWakeup(t *testing.T) {
	h := NewWaitHub()
	for round := 0; round < 2000; round++ {
		var versionMu sync.Mutex
		version := 0
		readVersion := func() int {
			versionMu.Lock()
			defer versionMu.Unlock()
			return version
		}
		fp := FPAdd(0, uintptr(round))
		done := make(chan struct{})
		go func() { // committer
			versionMu.Lock()
			version = 1
			versionMu.Unlock()
			if h.Active() {
				h.Notify(fp)
			}
		}()
		go func() { // waiter
			defer close(done)
			var w Waiter
			for {
				if readVersion() != 0 {
					return
				}
				h.Subscribe(&w, fp)
				if readVersion() != 0 { // validate after subscribe
					h.Unsubscribe(&w)
					return
				}
				w.Park()
				h.Unsubscribe(&w)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: lost wakeup", round)
		}
	}
}

package txtrace

import (
	"bytes"
	"sync"
	"testing"
)

func TestRingRecordAndDumpRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.NewRing("thread-0")
	b := rec.NewRing("thread-1")

	for i := 0; i < 5; i++ {
		a.Record(KindRead, uint64(100+i), uint64(i), 0)
	}
	b.Record(KindCommit, 7, 3, 0)

	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tr.Rings) != 2 {
		t.Fatalf("rings = %d, want 2", len(tr.Rings))
	}
	r0 := tr.Rings[0]
	if r0.Label != "thread-0" || r0.ID != 0 || r0.Drops != 0 {
		t.Fatalf("ring 0 header = %+v", r0)
	}
	if len(r0.Events) != 5 {
		t.Fatalf("ring 0 events = %d, want 5", len(r0.Events))
	}
	for i, e := range r0.Events {
		if e.Seq != uint64(i) || e.Clock != uint64(100+i) || e.Arg != uint64(i) || Kind(e.Kind) != KindRead {
			t.Fatalf("ring 0 event %d = %+v", i, e)
		}
	}
	r1 := tr.Rings[1]
	if len(r1.Events) != 1 || Kind(r1.Events[0].Kind) != KindCommit || r1.Events[0].Clock != 7 {
		t.Fatalf("ring 1 events = %+v", r1.Events)
	}
}

// TestRingWraparound is the directed overrun test: a ring overrun must
// overwrite the oldest events, bump the drop counter by exactly the
// number overwritten, and retain the newest capacity-many events in
// consecutive sequence order.
func TestRingWraparound(t *testing.T) {
	const ringCap = 8
	rec := NewRecorder(ringCap)
	r := rec.NewRing("w")

	const total = 3*ringCap + 5
	for i := 0; i < total; i++ {
		r.Record(KindWrite, 0, uint64(i), 0)
	}
	if got, want := r.Drops(), uint64(total-ringCap); got != want {
		t.Fatalf("Drops = %d, want %d", got, want)
	}
	if got, want := rec.Drops(), uint64(total-ringCap); got != want {
		t.Fatalf("Recorder.Drops = %d, want %d", got, want)
	}
	evs := r.events()
	if len(evs) != ringCap {
		t.Fatalf("retained %d events, want %d", len(evs), ringCap)
	}
	for i, e := range evs {
		wantSeq := uint64(total - ringCap + i)
		if e.Seq != wantSeq || e.Arg != wantSeq {
			t.Fatalf("event %d: seq=%d arg=%d, want %d (oldest-first order broken)", i, e.Seq, e.Arg, wantSeq)
		}
	}

	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after wraparound: %v", err)
	}
	if tr.Rings[0].Drops != uint64(total-ringCap) {
		t.Fatalf("dumped drops = %d, want %d", tr.Rings[0].Drops, total-ringCap)
	}
}

// TestRingCapRounding: non-power-of-two capacities round up.
func TestRingCapRounding(t *testing.T) {
	rec := NewRecorder(100)
	r := rec.NewRing("r")
	if len(r.buf) != 128 {
		t.Fatalf("ring cap = %d, want 128", len(r.buf))
	}
	if rec2 := NewRecorder(0); len(rec2.NewRing("d").buf) != DefaultRingCap {
		t.Fatalf("default ring cap not applied")
	}
}

// TestRecorderConcurrentOwners is the race soak: many goroutines, each
// owning its own ring, record past wraparound while another goroutine
// polls the live drop counters. Run under -race this proves the record
// path shares nothing but the drop atomics; after the join, the dump
// must show every ring fully consistent (no torn records: every
// retained event's payload matches the generator function of its
// sequence number).
func TestRecorderConcurrentOwners(t *testing.T) {
	const (
		owners  = 8
		ringCap = 64
		perRing = 10 * ringCap
	)
	rec := NewRecorder(ringCap)
	rings := make([]*Ring, owners)
	for i := range rings {
		rings[i] = rec.NewRing("owner")
	}

	var poller sync.WaitGroup
	stop := make(chan struct{})
	poller.Add(1)
	go func() { // live reader of the only shared state
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rec.Drops()
			}
		}
	}()
	var own sync.WaitGroup
	for i, r := range rings {
		own.Add(1)
		go func(id uint64, r *Ring) {
			defer own.Done()
			for s := uint64(0); s < perRing; s++ {
				r.Record(KindRead, id<<32|s, s*3+id, uint32(s))
			}
		}(uint64(i), r)
	}
	own.Wait() // the join is the happens-before edge Dump relies on
	close(stop)
	poller.Wait()

	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for ri, rd := range tr.Rings {
		if rd.Drops != perRing-ringCap {
			t.Fatalf("ring %d drops = %d, want %d", ri, rd.Drops, perRing-ringCap)
		}
		for _, e := range rd.Events {
			id := e.Clock >> 32
			s := e.Clock & 0xffffffff
			if s != e.Seq || e.Arg != s*3+id || e.Aux != uint32(s) {
				t.Fatalf("ring %d: torn record %+v", ri, e)
			}
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE-AT-ALL"))); err == nil {
		t.Fatalf("garbage accepted")
	}
	// Truncated valid stream.
	rec := NewRecorder(8)
	rec.NewRing("x").Record(KindCommit, 1, 1, 0)
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatalf("truncated stream accepted")
	}
}

func TestCMAuxPacking(t *testing.T) {
	aux := CMAux(2, 1)
	d, p := CMAuxDecode(aux)
	if d != 2 || p != 1 {
		t.Fatalf("CMAux round trip: got (%d,%d)", d, p)
	}
}

func TestKindAndAbortStrings(t *testing.T) {
	if KindTxBegin.String() != "TxBegin" || KindReclaim.String() != "Reclaim" {
		t.Fatalf("kind names wrong")
	}
	if Kind(0).String() != "Kind(0)" {
		t.Fatalf("unknown kind name wrong")
	}
	if AbortReasonString(AbortCM) != "cm" || AbortReasonString(99) != "reason(99)" {
		t.Fatalf("abort reason names wrong")
	}
}

// Kind values are the dump format: a renumbered kind misreads every
// dump written before the change. The retired slot 11 (a thread-placement
// rebind) stays reserved and named, so older dumps holding it still read
// and print.
func TestKindValuesPinned(t *testing.T) {
	want := []struct {
		k    Kind
		v    uint8
		name string
	}{
		{KindTxBegin, 1, "TxBegin"}, {KindAttemptStart, 2, "AttemptStart"},
		{KindRead, 3, "Read"}, {KindWrite, 4, "Write"}, {KindValidate, 5, "Validate"},
		{KindExtend, 6, "Extend"}, {KindCMDecision, 7, "CMDecision"}, {KindAbort, 8, "Abort"},
		{KindCommit, 9, "Commit"}, {KindReclaim, 10, "Reclaim"}, {kindRemap, 11, "Remap"},
		{KindCommitWord, 12, "CommitWord"}, {KindModeShift, 13, "ModeShift"},
		{KindRetryPark, 14, "RetryPark"},
	}
	for _, w := range want {
		if uint8(w.k) != w.v || w.k.String() != w.name {
			t.Errorf("%s = %d, want %s = %d", w.k, uint8(w.k), w.name, w.v)
		}
	}
	if int(kindMax) != len(want)+1 {
		t.Errorf("kindMax = %d: a kind was added without pinning its value", kindMax)
	}

	rec := NewRecorder(4)
	rec.NewRing("old").Record(Kind(11), 5, 2, 1)
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace rejected a kind-11 event: %v", err)
	}
	if ev := tr.Rings[0].Events; len(ev) != 1 || Kind(ev[0].Kind).String() != "Remap" {
		t.Fatalf("kind-11 event read back as %+v", ev)
	}
}

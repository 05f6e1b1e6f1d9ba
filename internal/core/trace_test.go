package core

import (
	"bytes"
	"testing"

	"tlstm/internal/txtrace"
)

// A ring task's trace follows the documented contract, as every other
// runtime's does: KindTxBegin carries the task's serial, KindAttemptStart
// the 1-based attempt ordinal and KindAbort 0. The tail of a two-task
// Submit calls Retry once (a multi-task transaction respins instead of
// parking), so its ring records attempts 1 and 2 around one Retry abort.
func TestRingTraceRecordsAttemptOrdinals(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 12)
	rt := New(Config{SpecDepth: 2, LockTableBits: 12, Trace: rec})
	thr := rt.NewThread()
	a := rt.Direct().Alloc(1)
	retried := false
	h, err := thr.Submit(
		func(*Task) {}, // shares nothing with the tail: no WAR or WAW restart
		func(tk *Task) {
			tk.Store(a, 1)
			if !retried {
				retried = true
				tk.Retry()
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	thr.Sync()
	rt.Close()

	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := txtrace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rd := range tr.Rings {
		var serial uint64
		var starts, aborts []txtrace.Event
		for _, e := range rd.Events {
			switch txtrace.Kind(e.Kind) {
			case txtrace.KindTxBegin:
				serial = e.Arg
			case txtrace.KindAttemptStart:
				starts = append(starts, e)
			case txtrace.KindAbort:
				aborts = append(aborts, e)
			}
		}
		if serial != 2 {
			continue
		}
		found = true
		if len(starts) != 2 || starts[0].Arg != 1 || starts[1].Arg != 2 || starts[0].Aux != 0 {
			t.Errorf("ring %q: AttemptStart events %+v, want Args 1, 2 and Aux 0", rd.Label, starts)
		}
		if len(aborts) != 1 || aborts[0].Arg != 0 || aborts[0].Aux != txtrace.AbortRetry {
			t.Errorf("ring %q: Abort events %+v, want one with Arg 0 and reason retry", rd.Label, aborts)
		}
	}
	if !found {
		t.Fatal("no ring recorded the tail's TxBegin (serial 2)")
	}
}

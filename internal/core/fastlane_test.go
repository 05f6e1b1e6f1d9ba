package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/locktable"
	"tlstm/internal/tm"
	"tlstm/internal/txcheck"
	"tlstm/internal/txtrace"
)

// Tests for the committed-read fast lane in Task.Load: it must be a
// shortcut into loadSlow — same read log, same trace, same work units —
// and must hand every case it does not own (own-thread chains, a Locked
// pair, a version ahead of the snapshot, a raised abort signal) to
// loadSlow. Every test runs with the flight recorder armed and puts the
// dump through the opacity oracle.

// slowTx is a Task whose Load skips the fast lane: Load's prologue, then
// straight into loadSlow.
type slowTx struct{ *Task }

func (s slowTx) Load(a tm.Addr) uint64 {
	s.Tick(1)
	return s.loadSlow(s.locks.For(a), a)
}

// checkDump runs the opacity oracle over rec's dump.
func checkDump(t *testing.T, rec *txtrace.Recorder) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := txtrace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	rep, err := txcheck.Check(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("ring %q seq %d: %s: %s", v.Ring, v.Seq, v.Code, v.Msg)
	}
	if !rep.Complete() || rep.TxsChecked == 0 {
		t.Fatalf("oracle verdict partial or empty (dropped=%d txs=%d)", rep.DroppedEvents, rep.TxsChecked)
	}
}

// loggedRead is a read-log entry with its pointers replaced by what two
// runtimes built the same way agree on.
type loggedRead struct {
	Slot      uint64
	Version   uint64
	FirstPast bool
}

func (t *Task) loggedReads(slots map[*locktable.Pair]uint64) []loggedRead {
	var out []loggedRead
	for _, re := range t.readLog.Entries() {
		out = append(out, loggedRead{slots[re.Pair], re.Version, re.FirstPast != nil})
	}
	return out
}

// The read log a body leaves behind is the same whether its loads went
// through the fast lane or were all forced down loadSlow — on a table of
// 16 pairs under 64 words, so own-thread chains, lock-pair collisions
// with an own entry and plain committed reads all occur — and a one-task
// transaction charges the same work either way.
func TestFastLaneReadLogEqualsSlowPath(t *testing.T) {
	const words = 64
	type outcome struct {
		one, head, tail []loggedRead
		work            uint64
		mem             [words]uint64
	}
	leg := func(slow bool) outcome {
		rec := txtrace.NewRecorder(1 << 14)
		rt := New(Config{SpecDepth: 2, LockTableBits: 4, Trace: rec})
		thr := rt.NewThread()
		d := rt.Direct()
		base := d.Alloc(words)
		slots := make(map[*locktable.Pair]uint64)
		for i := 0; i < words; i++ {
			d.Store(base+tm.Addr(i), uint64(i))
			slots[rt.locks.For(base+tm.Addr(i))] = rt.locks.Index(base + tm.Addr(i))
		}
		via := func(tk *Task) tm.Tx {
			if slow {
				return slowTx{tk}
			}
			return tk
		}
		// Give a third of the pairs non-zero versions.
		for i := 0; i < words; i += 3 {
			a := base + tm.Addr(i)
			if err := thr.Atomic(func(tk *Task) { tk.Store(a, tk.Load(a)+100) }); err != nil {
				t.Fatal(err)
			}
		}
		thr.Sync()
		workBefore := thr.Stats().Work

		var out outcome
		// One task: committed reads, two stores, reads of the written
		// words (own entry) and of every other word (collisions with it).
		if err := thr.Atomic(func(tk *Task) {
			tx := via(tk)
			sum := tm.SumWords(tx, base, words)
			tx.Store(base+5, sum)
			tx.Store(base+9, sum+1)
			sum += tm.SumWords(tx, base, words)
			tx.Store(base+5, sum)
			out.one = tk.loggedReads(slots)
		}); err != nil {
			t.Fatal(err)
		}
		thr.Sync()
		out.work = thr.Stats().Work - workBefore

		// Two tasks: the tail reads what the head wrote (the redo chain)
		// beside committed words. A body may run more than once; its last
		// run is the one that committed.
		if err := thr.shipAtomic(
			func(tk *Task) {
				tx := via(tk)
				for i := 0; i < 4; i++ {
					a := base + tm.Addr(i)
					tx.Store(a, tx.Load(a)+1000)
				}
				out.head = tk.loggedReads(slots)
			},
			func(tk *Task) {
				tx := via(tk)
				tx.Store(base+63, tm.SumWords(tx, base, 32))
				out.tail = tk.loggedReads(slots)
			},
		); err != nil {
			t.Fatal(err)
		}
		thr.Sync()
		rt.Close()
		for i := range out.mem {
			out.mem[i] = d.Load(base + tm.Addr(i))
		}
		checkDump(t, rec)
		return out
	}
	fast, slow := leg(false), leg(true)
	if len(fast.one) == 0 || len(fast.tail) == 0 {
		t.Fatal("empty read logs: the bodies did not run as intended")
	}
	if !reflect.DeepEqual(fast.one, slow.one) {
		t.Errorf("one-task read log differs:\n fast %v\n slow %v", fast.one, slow.one)
	}
	if !reflect.DeepEqual(fast.head, slow.head) {
		t.Errorf("head-task read log differs:\n fast %v\n slow %v", fast.head, slow.head)
	}
	if !reflect.DeepEqual(fast.tail, slow.tail) {
		t.Errorf("tail-task read log differs:\n fast %v\n slow %v", fast.tail, slow.tail)
	}
	if fast.work != slow.work {
		t.Errorf("one-task transaction charged %d work units through the fast lane, %d through loadSlow", fast.work, slow.work)
	}
	if fast.mem != slow.mem {
		t.Error("end states differ")
	}
}

// A pair a committer holds Locked is not read through: Load waits in
// loadSlow until the version is published, then extends to it and
// returns the published value. The committer is played by hand (a real
// one holds Locked for an instant), with its events on a trace ring of
// its own so the oracle knows the version.
func TestFastLaneLockedPairFallsThrough(t *testing.T) {
	rec := txtrace.NewRecorder(1 << 10)
	rt := New(Config{SpecDepth: 1, LockTableBits: 8, Trace: rec})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 7)
	p := rt.locks.For(a)

	p.R.Store(locktable.Locked)
	started, done := make(chan struct{}), make(chan struct{})
	var got, version uint64
	var logged int
	go func() {
		defer close(done)
		_ = thr.Atomic(func(tk *Task) {
			close(started)
			got = tk.Load(a)
			logged, version = tk.readLog.Len(), tk.readLog.Entries()[0].Version
		})
		thr.Sync()
	}()
	<-started
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatalf("Load returned %d from a Locked pair", got)
	default:
	}
	var probe clock.Probe
	ts := rt.Clk.Tick(&probe)
	committer, _ := rt.NewTracer("core-hand-committer")
	committer.Record(txtrace.KindAttemptStart, ts-1, 1, 0)
	committer.Record(txtrace.KindCommitWord, ts, uint64(a), 0)
	committer.Record(txtrace.KindCommit, ts, 1, 0)
	rt.Store.StoreWord(a, 8)
	p.R.Store(ts)
	<-done

	if got != 8 || logged != 1 || version != ts {
		t.Fatalf("Load = %d with %d logged read(s) at version %d, want 8 / 1 / %d", got, logged, version, ts)
	}
	if st := thr.Stats(); st.SnapshotExtensions != 1 || st.TaskRestarts != 0 {
		t.Fatalf("extensions=%d restarts=%d, want 1/0", st.SnapshotExtensions, st.TaskRestarts)
	}
	checkDump(t, rec)
}

// A version ahead of the snapshot goes to loadSlow, which extends the
// snapshot when the earlier reads still hold and restarts the task when
// one of them moved.
func TestFastLaneVersionAheadExtendsOrRestarts(t *testing.T) {
	for _, moveEarlierRead := range []bool{false, true} {
		rec := txtrace.NewRecorder(1 << 10)
		rt := New(Config{SpecDepth: 1, LockTableBits: 8, Trace: rec})
		reader, writer := rt.NewThread(), rt.NewThread()
		d := rt.Direct()
		x, y := d.Alloc(1), d.Alloc(1)

		attempts := 0
		var sawY uint64
		if err := reader.Atomic(func(tk *Task) {
			attempts++
			tk.Load(x)
			if attempts == 1 {
				// Commit y (and perhaps x) past the reader's snapshot.
				if err := writer.Atomic(func(w *Task) {
					w.Store(y, 5)
					if moveEarlierRead {
						w.Store(x, 5)
					}
				}); err != nil {
					t.Error(err)
				}
			}
			sawY = tk.Load(y)
		}); err != nil {
			t.Fatal(err)
		}
		reader.Sync()
		writer.Sync()
		rt.Close()

		st := reader.Stats()
		if moveEarlierRead {
			if attempts != 2 || st.RestartExtend != 1 || sawY != 5 {
				t.Fatalf("moved read: attempts=%d RestartExtend=%d y=%d, want 2/1/5", attempts, st.RestartExtend, sawY)
			}
		} else if attempts != 1 || st.SnapshotExtensions != 1 || st.TaskRestarts != 0 || sawY != 5 {
			t.Fatalf("clean extension: attempts=%d extensions=%d restarts=%d y=%d, want 1/1/0/5",
				attempts, st.SnapshotExtensions, st.TaskRestarts, sawY)
		}
		checkDump(t, rec)
	}
}

// An abort signal raised in the middle of a pure-load loop is honoured
// by the very next Load: no further read of that attempt succeeds.
func TestFastLaneHonoursAbortSignals(t *testing.T) {
	const words, raiseAt = 32, 11
	for _, sig := range []struct {
		name  string
		raise func(tk *Task)
		count func(Stats) uint64
	}{
		{"abortInternal", func(tk *Task) { tk.abortInternal.Store(true) }, func(s Stats) uint64 { return s.RestartWAW }},
		{"abortTx", func(tk *Task) { tk.tx.abortTx.Store(true) }, func(s Stats) uint64 { return s.TxAborted }},
	} {
		t.Run(sig.name, func(t *testing.T) {
			rec := txtrace.NewRecorder(1 << 10)
			rt := New(Config{SpecDepth: 1, LockTableBits: 8, Trace: rec})
			thr := rt.NewThread()
			base := rt.Direct().Alloc(words)

			var loads []int // successful loads per attempt
			if err := thr.Atomic(func(tk *Task) {
				loads = append(loads, 0)
				for i := 0; i < words; i++ {
					if len(loads) == 1 && i == raiseAt {
						sig.raise(tk)
					}
					tk.Load(base + tm.Addr(i))
					loads[len(loads)-1]++
				}
			}); err != nil {
				t.Fatal(err)
			}
			thr.Sync()
			rt.Close()
			if !reflect.DeepEqual(loads, []int{raiseAt, words}) {
				t.Fatalf("successful loads per attempt = %v, want [%d %d]", loads, raiseAt, words)
			}
			if n := sig.count(thr.Stats()); n != 1 {
				t.Fatalf("the signal was counted %d times, want 1: %+v", n, thr.Stats())
			}
			checkDump(t, rec)
		})
	}
}

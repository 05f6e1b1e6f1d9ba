package txrt_test

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/txtrace"
	"tlstm/internal/wtstm"
)

// The thread-kit parity regression: the contention manager's front half
// is the engine kit's (txrt.Desc.Contend), so on every runtime each
// counter it folds must equal the trace events it records.

// kitThread is one logical thread of a runtime under test.
type kitThread struct {
	atomic, atomicRO func(body func(tm.Tx))
	counters         func() txrt.Counters
}

// kitRuntime is one traced runtime with two threads.
type kitRuntime struct {
	rec     *txtrace.Recorder
	direct  mem.Direct
	threads [2]kitThread
	close   func()
}

// newKitRuntime builds the named runtime (stm, core, tl2 or wtstm) from
// cfg's Mode, CM and MVDepth, traced on a recorder of its own.
func newKitRuntime(name string, cfg txrt.Config) kitRuntime {
	const bits = 14
	rec := txtrace.NewRecorder(1 << 15)
	opts := []txrt.Option{txrt.WithTrace(rec), txrt.WithMode(cfg.Mode), txrt.WithCM(cfg.CM),
		txrt.WithMultiVersion(cfg.MVDepth)}
	k := kitRuntime{rec: rec, close: func() {}}
	switch name {
	case "stm":
		s := stm.New(append(opts, stm.WithLockTableBits(bits))...)
		k.direct = s.Direct()
		for i := range k.threads {
			w := s.NewWorker()
			k.threads[i] = kitThread{
				atomic:   func(body func(tm.Tx)) { w.Atomic(func(tx *stm.Tx) { body(tx) }) },
				atomicRO: func(body func(tm.Tx)) { w.AtomicRO(func(tx *stm.Tx) { body(tx) }) },
				counters: func() txrt.Counters { return w.Stats().Counters },
			}
		}
	case "core":
		c := core.New(core.Config{SpecDepth: 2, LockTableBits: bits, CM: cfg.CM, MVDepth: cfg.MVDepth,
			Trace: rec, Mode: cfg.Mode})
		k.direct, k.close = c.Direct(), c.Close
		for i := range k.threads {
			thr := c.NewThread()
			k.threads[i] = kitThread{
				atomic:   func(body func(tm.Tx)) { _ = thr.Atomic(func(tk *core.Task) { body(tk) }) },
				atomicRO: func(body func(tm.Tx)) { _ = thr.AtomicRO(func(tk *core.Task) { body(tk) }) },
				counters: func() txrt.Counters { thr.Sync(); return thr.Stats().Counters },
			}
		}
	case "tl2":
		l := tl2.New(bits, opts...)
		k.direct = l.Direct()
		for i := range k.threads {
			st := new(tl2.Stats)
			k.threads[i] = kitThread{
				atomic:   func(body func(tm.Tx)) { l.Atomic(st, func(tx *tl2.Tx) { body(tx) }) },
				atomicRO: func(body func(tm.Tx)) { l.AtomicRO(st, func(tx *tl2.Tx) { body(tx) }) },
				counters: func() txrt.Counters { return st.Counters },
			}
		}
	case "wtstm":
		w := wtstm.New(bits, opts...)
		k.direct = w.Direct()
		for i := range k.threads {
			st := new(wtstm.Stats)
			k.threads[i] = kitThread{
				atomic:   func(body func(tm.Tx)) { w.Atomic(st, func(tx *wtstm.Tx) { body(tx) }) },
				atomicRO: func(body func(tm.Tx)) { w.AtomicRO(st, func(tx *wtstm.Tx) { body(tx) }) },
				counters: func() txrt.Counters { return st.Counters },
			}
		}
	}
	return k
}

// alwaysLose decides AbortSelf on every conflict and backs the loser
// off one yield, so the lock's holder runs even on one processor.
type alwaysLose struct{}

func (alwaysLose) Name() string                                         { return "always-lose" }
func (alwaysLose) OnConflict(*cm.Self, *locktable.OwnerRef) cm.Decision { return cm.AbortSelf }
func (alwaysLose) OnAbort(*cm.Self) int                                 { return 1 }
func (alwaysLose) OnCommit(*cm.Self)                                    {}

// kitCheck pairs a counter with the trace events that must match it.
type kitCheck struct {
	name    string
	counter func(txrt.Counters) uint64
	event   func(txtrace.Event) bool
}

// contention runs read-yield-increment transactions on both threads at
// once, on one word; the yields keep the two threads overlapping.
func contention(rt kitRuntime) {
	hot := rt.direct.Alloc(1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, thr := range rt.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 256; i++ {
				thr.atomic(func(tx tm.Tx) {
					v := tx.Load(hot)
					runtime.Gosched()
					tx.Store(hot, v+1)
					runtime.Gosched()
				})
			}
		}()
	}
	close(start)
	wg.Wait()
}

func TestThreadKitParityFourRuntimes(t *testing.T) {
	rows := []struct {
		name   string
		cfg    txrt.Config
		batch  func(kitRuntime)
		checks []kitCheck
	}{
		{
			// Every conflict is lost.
			name:  "cm",
			cfg:   txrt.Config{CM: alwaysLose{}},
			batch: contention,
			checks: []kitCheck{{"CMAbortsSelf", func(c txrt.Counters) uint64 { return c.CMAbortsSelf }, func(e txtrace.Event) bool {
				dec, _ := txtrace.CMAuxDecode(e.Aux)
				return txtrace.Kind(e.Kind) == txtrace.KindCMDecision && dec == int(cm.AbortSelf)
			}}},
		},
	}
	// A tl2 transaction meets the contention manager only on a lock held
	// by a commit in progress, which takes two threads truly in parallel.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, name := range []string{"stm", "core", "tl2", "wtstm"} {
				// Whether two threads overlap is up to the scheduler: a
				// batch that left a counter at zero is retried on a fresh
				// runtime, within a bound.
				for deadline := time.Now().Add(10 * time.Second); ; {
					rt := newKitRuntime(name, row.cfg)
					row.batch(rt)
					sums := make([]uint64, len(row.checks))
					for _, thr := range rt.threads {
						c := thr.counters()
						for i, ck := range row.checks {
							sums[i] += ck.counter(c)
						}
					}
					rt.close()
					if !slices.Contains(sums, 0) || time.Now().After(deadline) {
						checkKitTrace(t, name, rt.rec, row.checks, sums)
						break
					}
				}
			}
		})
	}
}

// checkKitTrace requires every counter sum to have fired and to equal
// its trace-event count, with no ring drops.
func checkKitTrace(t *testing.T, name string, rec *txtrace.Recorder, checks []kitCheck, sums []uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatalf("%s: Dump: %v", name, err)
	}
	tr, err := txtrace.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("%s: ReadTrace: %v", name, err)
	}
	events := make([]uint64, len(checks))
	for _, ring := range tr.Rings {
		if ring.Drops != 0 {
			t.Fatalf("%s: ring %s dropped %d events", name, ring.Label, ring.Drops)
		}
		for _, e := range ring.Events {
			for i, ck := range checks {
				if ck.event(e) {
					events[i]++
				}
			}
		}
	}
	for i, ck := range checks {
		if sums[i] == 0 {
			t.Errorf("%s: %s never fired", name, ck.name)
		}
		if sums[i] != events[i] {
			t.Errorf("%s: %s = %d, but the trace has %d events", name, ck.name, sums[i], events[i])
		}
	}
}

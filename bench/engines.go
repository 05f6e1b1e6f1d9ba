package main

import (
	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
	"tlstm/internal/wtstm"
)

// engDirect is the fifth "engine": the bodies on mem.Direct with no
// runtime, the raw-memory floor and the driver's null run.
const engDirect = numEngines

// lockTableBits is every runtime's default table size; tl2 and wtstm
// take it as a required argument.
const lockTableBits = 20

// defaultCM is each runtime's own default contention manager, which a
// counting decorator has to name to wrap it.
var defaultCM = [numEngines]cm.Kind{cm.KindTaskAware, cm.KindGreedy, cm.KindSuicide, cm.KindSuicide}

// counters is the part of a runtime's Stats() the benchmark reads, in
// one shape for the four runtimes. virtual is the harness's virtual time
// of one user-thread: TLSTM's modelled parallel time, a flat runtime's
// work units.
type counters struct {
	commits, aborts, virtual             uint64
	taskRestarts, extensions, casRetries uint64
	cmSelf, cmOwner, backoff             uint64
	reclaims, stalls, reuses, spawned    uint64
	readSets, writeSets                  txstats.Hist
}

func (c *counters) add(o counters) {
	c.commits += o.commits
	c.aborts += o.aborts
	c.virtual = max(c.virtual, o.virtual) // user-threads run in parallel
	c.taskRestarts += o.taskRestarts
	c.extensions += o.extensions
	c.casRetries += o.casRetries
	c.cmSelf += o.cmSelf
	c.cmOwner += o.cmOwner
	c.backoff += o.backoff
	c.reclaims += o.reclaims
	c.stalls += o.stalls
	c.reuses += o.reuses
	c.spawned += o.spawned
	c.readSets.Merge(o.readSets)
	c.writeSets.Merge(o.writeSets)
}

func (c counters) minus(o counters) counters {
	return counters{
		commits: c.commits - o.commits, aborts: c.aborts - o.aborts, virtual: c.virtual - o.virtual,
		taskRestarts: c.taskRestarts - o.taskRestarts, extensions: c.extensions - o.extensions,
		casRetries: c.casRetries - o.casRetries,
		cmSelf:     c.cmSelf - o.cmSelf, cmOwner: c.cmOwner - o.cmOwner, backoff: c.backoff - o.backoff,
		reclaims: c.reclaims - o.reclaims, stalls: c.stalls - o.stalls,
		reuses: c.reuses - o.reuses, spawned: c.spawned - o.spawned,
		readSets: c.readSets.Minus(o.readSets), writeSets: c.writeSets.Minus(o.writeSets),
	}
}

// userThread drives one user-thread of one engine: run executes the
// transaction the cursor names through pre-built closures, so the timed
// loop allocates nothing.
type userThread struct {
	cur   cursor
	run   func() error
	stats func() counters // call only between slices (quiescent)

	// Traced passes only: the thread's tx spans, and per task the
	// body/op spans and the access counter.
	txb   *spanBuf
	tasks []*spanBuf
	ctrs  []*countTx
}

type engine struct {
	kind    int
	label   string
	direct  mem.Direct
	data    any
	threads []*userThread
	close   func()
	// oneAtATime engines run a multi-thread workload's streams one after
	// the other. mem.Direct has no concurrency control. wtstm loses
	// updates under concurrent writers (a Load that extends its snapshot
	// returns the value it read before the extension; diagnosis, repro
	// and the three-line fix are in README.md); this benchmark may not
	// change the engine and does not publish a number for a run whose
	// total is wrong, so on bank_hot wtstm's number is its uncontended
	// speed until the engine is fixed.
	oneAtATime bool

	// Set on decorated engines; warm holds the decorators' counts at the
	// end of the warm-up slice (now, tick, observe, conflicts).
	clk  *countClock
	pol  *countPolicy
	warm [4]uint64

	// Engines that record spans: one fold per measured slice, and the
	// first slice's first transactions for the span file.
	spans []sliceSpans
	dump  []dumpSpan
}

// engineOpts are the departures from default configuration a pass asks
// for; the zero value is the configuration every end-to-end number is
// measured at.
type engineOpts struct {
	decorate bool              // counting clock.Source and cm.Policy
	adaptive bool              // mode ladder armed (TLSTM only)
	recorder *txtrace.Recorder // flight recorder armed (TLSTM only)
	// spans preallocates span buffers and access counters sized for one
	// slice and wraps every body in a body span.
	spans bool
	// wrap, when set, replaces each body (sabotage, address recording).
	wrap func(thread, task int, b body) body
}

// buildEngine makes one engine instance with its data populated and its
// user-threads ready; n is the slice size the span buffers are cut for.
func buildEngine(kind int, label string, wl workload, threads, n int, opt engineOpts) *engine {
	sh := wl.shape()
	e := &engine{kind: kind, label: label, close: func() {}, oneAtATime: kind == engDirect || kind == engWTSTM}
	var clk clock.Source
	var pol cm.Policy
	if opt.decorate && kind < numEngines {
		e.clk = &countClock{Source: clock.New(clock.KindGV4)}
		e.pol = &countPolicy{Policy: cm.New(defaultCM[kind])}
		clk, pol = e.clk, e.pol
	}

	var (
		coreRT *core.Runtime
		stmRT  *stm.Runtime
		tl2RT  *tl2.Runtime
		wtRT   *wtstm.Runtime
	)
	switch kind {
	case engCore:
		cfg := core.Config{SpecDepth: sh.specDepth, Clock: clk, CM: pol, Trace: opt.recorder}
		if opt.adaptive {
			cfg.Mode = mode.Config{Policy: mode.Adaptive}
		}
		coreRT = core.New(cfg)
		e.direct, e.close = coreRT.Direct(), coreRT.Close
	case engSTM:
		var o []stm.Option
		if clk != nil {
			o = append(o, stm.WithClock(clk), stm.WithCM(pol))
		}
		stmRT = stm.New(o...)
		e.direct = stmRT.Direct()
	case engTL2:
		var o []tl2.Option
		if clk != nil {
			o = append(o, tl2.WithClock(clk), tl2.WithCM(pol))
		}
		tl2RT = tl2.New(lockTableBits, o...)
		e.direct = tl2RT.Direct()
	case engWTSTM:
		var o []wtstm.Option
		if clk != nil {
			o = append(o, wtstm.WithClock(clk), wtstm.WithCM(pol))
		}
		wtRT = wtstm.New(lockTableBits, o...)
		e.direct = wtRT.Direct()
	case engDirect:
		st := mem.NewStore()
		e.direct = mem.Direct{Mem: st, Al: mem.NewAllocator(st)}
	}
	e.data = wl.populate(e.direct)

	for th := 0; th < threads; th++ {
		ut := &userThread{}
		ut.cur.tx = -1
		sp := make([]*spanBuf, sh.tasks)
		if opt.spans {
			ut.txb = newSpanBuf(n)
			ut.ctrs = make([]*countTx, sh.tasks)
			for k := range sp {
				// A body span and its op span per execution, with
				// headroom for two re-executions of every transaction.
				sp[k] = newSpanBuf(6*n + 4096)
				ut.ctrs[k] = &countTx{}
			}
			ut.tasks = sp
		}
		bodies := wl.bodies(e.data, th, &ut.cur, sp)
		for k, b := range bodies {
			if opt.wrap != nil {
				b = opt.wrap(th, k, b)
			}
			if opt.spans {
				b = tracedBody(ut, k, b)
			}
			bodies[k] = b
		}
		all := func(tx tm.Tx) {
			for _, b := range bodies {
				b(tx)
			}
		}
		switch kind {
		case engCore:
			thr := coreRT.NewThread()
			fns := make([]core.TaskFunc, len(bodies))
			for k, b := range bodies {
				b := b
				fns[k] = func(t *core.Task) { b(t) }
			}
			ut.run = func() error { return thr.Atomic(fns...) }
			ut.stats = func() counters {
				thr.Sync()
				s := thr.Stats()
				return counters{
					commits: s.TxCommitted, aborts: s.TxAborted, virtual: s.VirtualTime,
					taskRestarts: s.TaskRestarts, extensions: s.SnapshotExtensions,
					casRetries: s.ClockCASRetries,
					cmSelf:     s.CMAbortsSelf, cmOwner: s.CMAbortsOwner, backoff: s.BackoffSpins,
					reclaims: s.EntryReclaims, stalls: s.HorizonStalls,
					reuses: s.DescriptorReuses, spawned: s.WorkersSpawned,
					readSets: s.ReadSetSizes, writeSets: s.WriteSetSizes,
				}
			}
		case engSTM:
			wk := stmRT.NewWorker()
			fn := func(tx *stm.Tx) { all(tx) }
			ut.run = func() error { wk.Atomic(fn); return nil }
			ut.stats = func() counters {
				s := wk.Stats()
				return counters{
					commits: s.Commits, aborts: s.Aborts, virtual: s.Work,
					extensions: s.SnapshotExtensions, casRetries: s.ClockCASRetries,
					cmSelf: s.CMAbortsSelf, cmOwner: s.CMAbortsOwner, backoff: s.BackoffSpins,
					reclaims: s.EntryReclaims, stalls: s.HorizonStalls,
					readSets: s.ReadSetSizes, writeSets: s.WriteSetSizes,
				}
			}
		case engTL2:
			s := new(tl2.Stats)
			fn := func(tx *tl2.Tx) { all(tx) }
			ut.run = func() error { tl2RT.Atomic(s, fn); return nil }
			ut.stats = func() counters {
				return counters{
					commits: s.Commits, aborts: s.Aborts, virtual: s.Work,
					extensions: s.SnapshotExtensions, casRetries: s.ClockCASRetries,
					cmSelf: s.CMAbortsSelf, cmOwner: s.CMAbortsOwner, backoff: s.BackoffSpins,
					readSets: s.ReadSetSizes, writeSets: s.WriteSetSizes,
				}
			}
		case engWTSTM:
			s := new(wtstm.Stats)
			fn := func(tx *wtstm.Tx) { all(tx) }
			ut.run = func() error { wtRT.Atomic(s, fn); return nil }
			ut.stats = func() counters {
				return counters{
					commits: s.Commits, aborts: s.Aborts, virtual: s.Work,
					extensions: s.SnapshotExtensions, casRetries: s.ClockCASRetries,
					cmSelf: s.CMAbortsSelf, cmOwner: s.CMAbortsOwner, backoff: s.BackoffSpins,
					readSets: s.ReadSetSizes, writeSets: s.WriteSetSizes,
				}
			}
		case engDirect:
			var d tm.Tx = e.direct // converted once, not per transaction
			ut.run = func() error { all(d); return nil }
			ut.stats = func() counters { return counters{} }
		}
		e.threads = append(e.threads, ut)
	}
	return e
}

// tracedBody wraps task k's body in a body span and routes its accesses
// through the task's counter. The end is deferred because a runtime
// restarts a body by unwinding through it.
func tracedBody(ut *userThread, k int, b body) body {
	s, c := ut.tasks[k], ut.ctrs[k]
	return func(tx tm.Tx) {
		c.Tx = tx
		i := s.begin(spanBody, ut.cur.tx, ut.cur.i)
		s.body = i
		defer s.endBody(i)
		b(c)
	}
}

// totals sums the threads' counters.
func (e *engine) totals() counters {
	var c counters
	for _, ut := range e.threads {
		c.add(ut.stats())
	}
	return c
}

// takeSpans folds the spans and access counts recorded since the last
// call and empties the buffers; keep also copies the first transactions
// for the span file. Call it only between slices.
func (e *engine) takeSpans(keep bool) sliceSpans {
	var agg sliceSpans
	for th, ut := range e.threads {
		if ut.txb == nil {
			continue
		}
		foldSpans(ut.txb, ut.tasks, &agg)
		if keep {
			e.dump = collectDump(e.dump, th, ut.txb, ut.tasks)
		}
		ut.txb.reset()
		for k, c := range ut.ctrs {
			agg.loads += c.loads
			agg.stores += c.stores
			c.loads, c.stores = 0, 0
			ut.tasks[k].reset()
		}
	}
	return agg
}

// markWarm remembers the decorators' counts once the warm-up slice ran.
func (e *engine) markWarm() {
	if e.clk != nil {
		e.warm = [4]uint64{e.clk.now.Load(), e.clk.tick.Load(), e.clk.observe.Load(), e.pol.conflicts.Load()}
	}
}

// Package harness drives the paper's four evaluation experiments
// (Figures 1a, 1b, 2a, 2b) over both runtimes and reports throughput.
//
// Hardware substitution (README, "Reproducing the paper's figures"):
// the paper measured wall-clock throughput on 64-hardware-thread
// machines; this container has one CPU, where speculative parallelism
// cannot shorten wall time. The runtimes therefore count *work units*
// for every operation they actually execute — reads, writes, validation
// steps, commit publishes, including all aborted attempts — and the
// harness reports *virtual time*: per user-transaction, its tasks start
// together and task k finishes at max(own work, finish of k−1) plus a
// commit cost (commits are serialized per thread); threads run in
// parallel, so a run's virtual duration is the maximum per-thread
// virtual time. Conflicts and rollbacks lengthen virtual time exactly
// where they lengthen the paper's wall time. Wall-clock numbers are
// also recorded.
//
// The runtimes only count: their access paths never yield the
// processor. Transactions overlap when they run on different CPUs; the
// contention sweeps (sweep.go), which must contend on one CPU too, yield
// inside their transaction bodies instead.
package harness

import (
	"fmt"
	"sync"
	"time"

	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/wtstm"
)

// TaskBody is one speculative task's work, written against the common
// tm.Tx interface so the same body runs on both runtimes.
type TaskBody func(tx tm.Tx)

// TxSeq is one user-transaction decomposed into task bodies in program
// order. The SwissTM baseline runs the concatenation as a single
// transaction; TLSTM runs one speculative task per element.
type TxSeq []TaskBody

// Workload describes one benchmark configuration.
type Workload struct {
	// Name labels the series this run belongs to.
	Name string
	// Threads is the number of user-threads (paper: hand-parallelized
	// threads / Vacation clients).
	Threads int
	// TxPerThread is the number of user-transactions per thread.
	TxPerThread int
	// OpsPerTx is how many application-level operations one
	// transaction represents (throughput numerator).
	OpsPerTx int
	// Make produces the transaction to run; it must be deterministic in
	// (thread, idx) so runtimes can be compared on identical work.
	Make func(thread, idx int) TxSeq
	// ReadOnly, when non-nil, declares transaction (thread, idx) as
	// read-only: runners route it through the runtime's AtomicRO entry
	// point, which takes the wait-free multi-version read path when the
	// runtime has one configured. The declaration is a hint — a
	// transaction that writes anyway falls back to the validated path —
	// but a truthful one is what the mv= columns measure.
	ReadOnly func(thread, idx int) bool
}

// declaredRO reports whether the workload declares (thread, idx)
// read-only.
func (w Workload) declaredRO(thread, idx int) bool {
	return w.ReadOnly != nil && w.ReadOnly(thread, idx)
}

// Result is one configuration's measurement: the run's identity and
// configuration labels, the engine kit's shared statistics summed over
// the run's threads (txrt.Stats — for TLSTM, Commits/Aborts are
// committed user-transactions and whole-transaction aborts, and the
// per-transaction histograms are per task), and the TLSTM-only counters.
type Result struct {
	Label        string
	Ops          uint64
	VirtualUnits uint64 // the slowest thread's virtual time (threads run in parallel)
	Wall         time.Duration

	// CM, MV and Mode name the configuration the run used:
	// contention-management policy, retained version depth (0 = off),
	// execution-mode policy.
	CM   string
	MV   int
	Mode string

	txrt.Stats

	// TLSTM runs only: single-task rollbacks, worker goroutines spawned
	// across all threads (at most threads×SpecDepth for the whole run),
	// and task/transaction descriptors served from the recycled rings.
	TaskRestarts     uint64
	WorkersSpawned   uint64
	DescriptorReuses uint64
}

// Throughput reports application operations per 1000 virtual work units
// (the figures' y-axis; the paper uses ops/s on real hardware).
func (r Result) Throughput() float64 {
	if r.VirtualUnits == 0 {
		return 0
	}
	return float64(r.Ops) * 1000 / float64(r.VirtualUnits)
}

// String formats a result row. Scheduler counters appear only when the
// run produced them (TLSTM runs; the baseline has no task scheduler),
// and the extension and validated-entry counts only when nonzero.
func (r Result) String() string {
	s := fmt.Sprintf("%-22s ops=%-8d tput=%8.3f vtime=%-10d txAbort=%-5d taskRestart=%-6d wall=%s",
		r.Label, r.Ops, r.Throughput(), r.VirtualUnits, r.Aborts, r.TaskRestarts, r.Wall.Round(time.Millisecond))
	if r.WorkersSpawned > 0 || r.DescriptorReuses > 0 {
		s += fmt.Sprintf(" workers=%-3d descReuse=%d", r.WorkersSpawned, r.DescriptorReuses)
	}
	if r.SnapshotExtensions > 0 {
		s += fmt.Sprintf(" ext=%-5d", r.SnapshotExtensions)
	}
	if r.ValidatedEntries > 0 {
		s += fmt.Sprintf(" validated=%-8d", r.ValidatedEntries)
	}
	if r.CMAbortsSelf > 0 || r.CMAbortsOwner > 0 || r.BackoffSpins > 0 {
		s += fmt.Sprintf(" cm=%-9s cmSelf=%-5d cmOwner=%-5d spins=%d", r.CM, r.CMAbortsSelf, r.CMAbortsOwner, r.BackoffSpins)
	}
	if r.EntryReclaims > 0 || r.HorizonStalls > 0 {
		s += fmt.Sprintf(" reclaim=%-6d stall=%d", r.EntryReclaims, r.HorizonStalls)
	}
	if r.MV > 0 || r.MVReads > 0 || r.MVMisses > 0 {
		s += fmt.Sprintf(" mv=%d mvRead=%-7d mvMiss=%-4d rset[%s] wset[%s]",
			r.MV, r.MVReads, r.MVMisses, r.ReadSetSizes, r.WriteSetSizes)
	}
	if r.CommitLatency.Total() > 0 {
		s += fmt.Sprintf(" commitLat[%s] attempts[%s]", r.CommitLatency, r.Attempts)
		if r.RestartLatency.Total() > 0 {
			s += fmt.Sprintf(" restartLat[%s]", r.RestartLatency)
		}
	}
	if (r.Mode != "" && r.Mode != mode.Speculative.String()) || r.RetryWakes > 0 {
		s += fmt.Sprintf(" mode=%-6s retryWake=%d", r.Mode, r.RetryWakes)
	}
	return s
}

// configured is what every runtime reports about its configuration
// (txrt.Env's accessors).
type configured interface {
	CMName() string
	MVDepth() int
	ModeName() string
}

// newResult starts a run's Result row.
func newResult(w Workload, rt configured, start time.Time) Result {
	return Result{
		Label: w.Name,
		Ops:   uint64(w.Threads * w.TxPerThread * w.OpsPerTx),
		Wall:  time.Since(start),
		CM:    rt.CMName(),
		MV:    rt.MVDepth(),
		Mode:  rt.ModeName(),
	}
}

// flatThread is one thread of a flat-transaction runtime as runFlat
// drives it: run executes one transaction (declared read-only or not),
// stats returns the thread's shard once the thread is done.
type flatThread struct {
	run   func(body func(tm.Tx), ro bool)
	stats func() txrt.Stats
}

// runFlat drives a flat-transaction runtime: one goroutine per thread,
// each TxSeq concatenated into one transaction (declared read-only when
// the workload says so), the per-thread shards folded into the Result.
func runFlat(w Workload, rt configured, newThread func() flatThread) Result {
	start := time.Now()
	threads := make([]flatThread, w.Threads)
	for th := range threads {
		threads[th] = newThread()
	}
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < w.TxPerThread; i++ {
				seq := w.Make(th, i)
				threads[th].run(func(tx tm.Tx) {
					for _, body := range seq {
						body(tx)
					}
				}, w.declaredRO(th, i))
			}
		}(th)
	}
	wg.Wait()

	res := newResult(w, rt, start)
	for _, t := range threads {
		st := t.stats()
		res.Stats.Add(st)
		res.VirtualUnits = max(res.VirtualUnits, st.Work)
	}
	return res
}

// RunSTM executes the workload over the SwissTM baseline. Every thread
// runs on its own stm.Worker, so statistics accumulate into unshared
// shards (merged into the runtime aggregate at the end) and the hot path
// reuses one pooled transaction descriptor per thread.
func RunSTM(rt *stm.Runtime, w Workload) Result {
	return runFlat(w, rt, func() flatThread {
		wk := rt.NewWorker()
		return flatThread{
			run: func(body func(tm.Tx), ro bool) {
				fn := func(tx *stm.Tx) { body(tx) }
				if ro {
					wk.AtomicRO(fn)
				} else {
					wk.Atomic(fn)
				}
			},
			stats: func() txrt.Stats {
				st := wk.Stats()
				wk.Close() // merge the shard into the runtime aggregate
				return st
			},
		}
	})
}

// shardRuntime is a flat runtime whose logical thread is the caller's
// stats shard (tl2, wtstm); T is its transaction descriptor.
type shardRuntime[T any] interface {
	configured
	Atomic(st *txrt.Stats, fn func(tx *T))
	AtomicRO(st *txrt.Stats, fn func(tx *T))
}

func runSharded[T any, PT interface {
	*T
	tm.Tx
}](rt shardRuntime[T], w Workload) Result {
	return runFlat(w, rt, func() flatThread {
		st := new(txrt.Stats)
		return flatThread{
			run: func(body func(tm.Tx), ro bool) {
				fn := func(tx *T) { body(PT(tx)) }
				if ro {
					rt.AtomicRO(st, fn)
				} else {
					rt.Atomic(st, fn)
				}
			},
			stats: func() txrt.Stats { return *st },
		}
	})
}

// RunTL2 executes the workload on the TL2 baseline.
func RunTL2(rt *tl2.Runtime, w Workload) Result { return runSharded[tl2.Tx](rt, w) }

// RunWTSTM executes the workload on the write-through STM.
func RunWTSTM(rt *wtstm.Runtime, w Workload) Result { return runSharded[wtstm.Tx](rt, w) }

// RunTLSTM executes the workload over TLSTM: each TxSeq element becomes
// one speculative task. The runtime's SpecDepth must be at least the
// longest TxSeq.
func RunTLSTM(rt *core.Runtime, w Workload) Result {
	start := time.Now()
	threads := make([]*core.Thread, w.Threads)
	for th := range threads {
		threads[th] = rt.NewThread()
	}
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			thr := threads[th]
			for i := 0; i < w.TxPerThread; i++ {
				seq := w.Make(th, i)
				fns := make([]core.TaskFunc, len(seq))
				for j, body := range seq {
					body := body
					fns[j] = func(tk *core.Task) { body(tk) }
				}
				var err error
				if w.declaredRO(th, i) {
					err = thr.AtomicRO(fns...)
				} else {
					err = thr.Atomic(fns...)
				}
				if err != nil {
					panic(fmt.Sprintf("harness: %v", err))
				}
			}
			thr.Sync()
		}(th)
	}
	wg.Wait()

	res := newResult(w, rt, start)
	for _, thr := range threads {
		st := thr.Stats()
		res.Commits += st.TxCommitted
		res.Aborts += st.TxAborted
		res.Counters.Add(st.Counters)
		res.TaskRestarts += st.TaskRestarts
		res.WorkersSpawned += st.WorkersSpawned
		res.DescriptorReuses += st.DescriptorReuses
		res.VirtualUnits = max(res.VirtualUnits, st.VirtualTime)
	}
	return res
}

// Series is one plotted line: label plus (x, throughput) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced plot: titled series over a common x-axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// CSV renders the figure as comma-separated values with a header row,
// for plotting (x, then one column per series).
func (f Figure) CSV() string {
	out := f.XLabel
	for _, s := range f.Series {
		out += "," + s.Name
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		out += fmt.Sprintf("%g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(",%.6f", s.Y[i])
			} else {
				out += ","
			}
		}
		out += "\n"
	}
	return out
}

// Format renders the figure as an aligned text table (x down the rows,
// one column per series).
func (f Figure) Format() string {
	out := fmt.Sprintf("## %s\n%-12s", f.Title, f.XLabel)
	for _, s := range f.Series {
		out += fmt.Sprintf(" %14s", s.Name)
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		out += fmt.Sprintf("%-12.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(" %14.3f", s.Y[i])
			} else {
				out += fmt.Sprintf(" %14s", "-")
			}
		}
		out += "\n"
	}
	return out
}

// Benchmarks regenerating the paper's evaluation (one per figure, §4)
// plus runtime microbenchmarks and ablations of single design choices.
//
// Figure benches report two metrics: wall ns/op (dominated by the
// 1-CPU simulator, not meaningful for speedup) and vunits/tx — virtual
// work units per transaction under the critical-path model (README,
// "Reproducing the paper's figures"), the quantity behind the figures'
// throughput axes.
// Lower vunits/tx means higher paper-throughput.
package tlstm_test

import (
	"fmt"
	"testing"

	"tlstm"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/harness"
	"tlstm/internal/rbtree"
	"tlstm/internal/sb7"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/vacation"
	"tlstm/internal/wtstm"
)

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// reportVUnits attaches the virtual-time metric for TLSTM runs.
func reportVUnits(b *testing.B, thr *core.Thread) {
	b.Helper()
	st := thr.Stats()
	if st.TxCommitted > 0 {
		b.ReportMetric(float64(st.VirtualTime)/float64(st.TxCommitted), "vunits/tx")
	}
}

// -----------------------------------------------------------------------------
// Figure 1a (E1): red-black tree lookups, 1 thread, split into tasks.
// -----------------------------------------------------------------------------

func BenchmarkFig1aRBTree(b *testing.B) {
	const treeSize = 1 << 12
	for _, tasks := range []int{1, 2, 4} {
		for _, ops := range []int{8, 64} {
			b.Run(fmt.Sprintf("tasks=%d/ops=%d", tasks, ops), func(b *testing.B) {
				rt := tlstm.New(tlstm.Config{SpecDepth: max(tasks, 1)})
				d := rt.Direct()
				tr := rbtree.New(d)
				for k := int64(0); k < treeSize; k++ {
					tr.Insert(d, k, uint64(k))
				}
				thr := rt.NewThread()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fns := make([]tlstm.TaskFunc, 0, tasks)
					per := ops / tasks
					for t := 0; t < tasks; t++ {
						lo := t * per
						fns = append(fns, func(tk *tlstm.Task) {
							for j := lo; j < lo+per; j++ {
								tr.Lookup(tk, int64(mix(uint64(i*ops+j))%treeSize))
							}
						})
					}
					if err := thr.Atomic(fns...); err != nil {
						b.Fatal(err)
					}
				}
				thr.Sync()
				b.StopTimer()
				reportVUnits(b, thr)
			})
		}
	}
}

// SwissTM reference point for Figure 1a's denominator.
func BenchmarkFig1aRBTreeBaseline(b *testing.B) {
	const treeSize = 1 << 12
	for _, ops := range []int{8, 64} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			rt := stm.New()
			d := rt.Direct()
			tr := rbtree.New(d)
			for k := int64(0); k < treeSize; k++ {
				tr.Insert(d, k, uint64(k))
			}
			var st stm.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Atomic(&st, func(tx *stm.Tx) {
					for j := 0; j < ops; j++ {
						tr.Lookup(tx, int64(mix(uint64(i*ops+j))%treeSize))
					}
				})
			}
			b.StopTimer()
			if st.Commits > 0 {
				b.ReportMetric(float64(st.Work)/float64(st.Commits), "vunits/tx")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Figure 1b (E2): Vacation, 8 operations per transaction.
// -----------------------------------------------------------------------------

func BenchmarkFig1bVacation(b *testing.B) {
	p := vacation.LowContention()
	p.Relations = 1 << 10
	for _, tasks := range []int{1, 2} {
		b.Run(fmt.Sprintf("tlstm-tasks=%d", tasks), func(b *testing.B) {
			rt := tlstm.New(tlstm.Config{SpecDepth: max(tasks, 1)})
			m := vacation.NewManager(rt.Direct(), 256)
			vacation.Populate(rt.Direct(), m, p)
			thr := rt.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := vacation.NewRng(uint64(i + 1))
				ops := make([]vacation.Op, 8)
				for j := range ops {
					ops[j] = p.Generate(r)
				}
				per := 8 / tasks
				fns := make([]tlstm.TaskFunc, 0, tasks)
				for t := 0; t < tasks; t++ {
					part := ops[t*per : (t+1)*per]
					fns = append(fns, func(tk *tlstm.Task) {
						for _, op := range part {
							m.Execute(tk, op)
						}
					})
				}
				if err := thr.Atomic(fns...); err != nil {
					b.Fatal(err)
				}
			}
			thr.Sync()
			b.StopTimer()
			reportVUnits(b, thr)
		})
	}
	b.Run("swisstm", func(b *testing.B) {
		rt := stm.New()
		m := vacation.NewManager(rt.Direct(), 256)
		vacation.Populate(rt.Direct(), m, p)
		var st stm.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := vacation.NewRng(uint64(i + 1))
			rt.Atomic(&st, func(tx *stm.Tx) {
				for j := 0; j < 8; j++ {
					m.Execute(tx, p.Generate(r))
				}
			})
		}
		b.StopTimer()
		if st.Commits > 0 {
			b.ReportMetric(float64(st.Work)/float64(st.Commits), "vunits/tx")
		}
	})
}

// -----------------------------------------------------------------------------
// Figure 2a (E3): SB7 long traversals vs read ratio (1 thread, 3 tasks).
// -----------------------------------------------------------------------------

func BenchmarkFig2aSB7ReadRatio(b *testing.B) {
	for _, pctRead := range []int{0, 100} {
		for _, tasks := range []int{1, 3} {
			b.Run(fmt.Sprintf("tasks=%d/read=%d", tasks, pctRead), func(b *testing.B) {
				rt := tlstm.New(tlstm.Config{SpecDepth: max(tasks, 1)})
				bench, err := sb7.Build(rt.Direct(), sb7.Default())
				if err != nil {
					b.Fatal(err)
				}
				thr := rt.NewThread()
				roots, level := bench.SplitRoots(tasks)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					readOnly := i%100 < pctRead
					seed := mix(uint64(i))
					fns := make([]tlstm.TaskFunc, 0, tasks)
					for _, root := range roots {
						root := root
						fns = append(fns, func(tk *tlstm.Task) {
							if readOnly {
								bench.TraverseRead(tk, root, level)
							} else {
								bench.TraverseWrite(tk, root, level, seed)
							}
						})
					}
					if err := thr.Atomic(fns...); err != nil {
						b.Fatal(err)
					}
				}
				thr.Sync()
				b.StopTimer()
				reportVUnits(b, thr)
			})
		}
	}
}

// -----------------------------------------------------------------------------
// Figure 2b (E4): SB7 long traversals, threads × tasks grid (bench subset:
// the four corners that carry the paper's claims).
// -----------------------------------------------------------------------------

func BenchmarkFig2bSB7Scaling(b *testing.B) {
	type cfg struct {
		threads, tasks, pctRead int
	}
	for _, c := range []cfg{
		{1, 3, 90}, {2, 3, 90}, // read-dominated: the +80%/+48% points
		{1, 9, 90}, // 9 tasks, 1 thread: better than 3 tasks
		{2, 9, 90}, // 9 tasks, 2 threads: collapses
		{1, 3, 10}, // write-dominated: below baseline
	} {
		b.Run(fmt.Sprintf("thr=%d/tasks=%d/read=%d", c.threads, c.tasks, c.pctRead), func(b *testing.B) {
			rt := tlstm.New(tlstm.Config{SpecDepth: c.tasks})
			bench, err := sb7.Build(rt.Direct(), sb7.Default())
			if err != nil {
				b.Fatal(err)
			}
			w := harness.Workload{
				Name: "fig2b", Threads: c.threads, TxPerThread: max(b.N/c.threads, 1), OpsPerTx: 1,
				Make: func(thread, idx int) harness.TxSeq {
					seed := mix(uint64(thread)<<32 | uint64(idx))
					readOnly := int(seed%100) < c.pctRead
					roots, level := bench.SplitRoots(c.tasks)
					var seq harness.TxSeq
					for _, root := range roots {
						root := root
						seq = append(seq, func(tx tm.Tx) {
							if readOnly {
								bench.TraverseRead(tx, root, level)
							} else {
								bench.TraverseWrite(tx, root, level, seed)
							}
						})
					}
					return seq
				},
			}
			b.ResetTimer()
			res := harness.RunTLSTM(rt, w)
			b.StopTimer()
			if res.Commits > 0 {
				b.ReportMetric(float64(res.VirtualUnits)/float64(res.Commits), "vunits/tx")
			}
		})
	}
}

// -----------------------------------------------------------------------------
// Runtime microbenchmarks.
// -----------------------------------------------------------------------------

func BenchmarkSTMReadWord(b *testing.B) {
	rt := stm.New()
	a := rt.Direct().Alloc(1)
	b.ResetTimer()
	rt.Atomic(nil, func(tx *stm.Tx) {
		for i := 0; i < b.N; i++ {
			tx.Load(a)
		}
	})
}

func BenchmarkSTMWriteWord(b *testing.B) {
	rt := stm.New()
	base := rt.Direct().Alloc(1 << 12)
	b.ResetTimer()
	rt.Atomic(nil, func(tx *stm.Tx) {
		for i := 0; i < b.N; i++ {
			tx.Store(base+tm.Addr(i&4095), uint64(i))
		}
	})
}

func BenchmarkTaskReadWord(b *testing.B) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 1})
	a := rt.Direct().Alloc(1)
	thr := rt.NewThread()
	b.ResetTimer()
	_ = thr.Atomic(func(tk *tlstm.Task) {
		for i := 0; i < b.N; i++ {
			tk.Load(a)
		}
	})
	thr.Sync()
}

// Speculative forwarding: reading a past task's uncommitted write.
func BenchmarkTaskForwardedRead(b *testing.B) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	a := rt.Direct().Alloc(1)
	thr := rt.NewThread()
	b.ResetTimer()
	_ = thr.Atomic(
		func(tk *tlstm.Task) { tk.Store(a, 1) },
		func(tk *tlstm.Task) {
			for i := 0; i < b.N; i++ {
				tk.Load(a)
			}
		},
	)
	thr.Sync()
}

func BenchmarkTxCommitReadOnly(b *testing.B) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	a := rt.Direct().Alloc(1)
	thr := rt.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = thr.Atomic(
			func(tk *tlstm.Task) { tk.Load(a) },
			func(tk *tlstm.Task) { tk.Load(a) },
		)
	}
	thr.Sync()
}

func BenchmarkTxCommitWrite(b *testing.B) {
	rt := tlstm.New(tlstm.Config{SpecDepth: 2})
	base := rt.Direct().Alloc(2)
	thr := rt.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = thr.Atomic(
			func(tk *tlstm.Task) { tk.Store(base, uint64(i)) },
			func(tk *tlstm.Task) { tk.Store(base+1, uint64(i)) },
		)
	}
	thr.Sync()
}

// -----------------------------------------------------------------------------
// Ablations: one design choice (contention manager, speculation depth,
// baseline runtime, write handling, lock-table size) varied at a time.
// -----------------------------------------------------------------------------

// Task-aware CM vs plain two-phase greedy under inter-thread write
// contention (paper §3.2 motivates task-awareness with the deadlock
// example; this measures the throughput side).
func BenchmarkAblationContentionManager(b *testing.B) {
	for _, kind := range []cm.Kind{cm.KindTaskAware, cm.KindGreedy} {
		name := "task-aware"
		if kind == cm.KindGreedy {
			name = "plain-greedy"
		}
		b.Run(name, func(b *testing.B) {
			rt := core.New(core.Config{SpecDepth: 2, CM: cm.New(kind)})
			d := rt.Direct()
			const accounts = 8
			base := d.Alloc(accounts)
			w := harness.Workload{
				Name: name, Threads: 2, TxPerThread: max(b.N/2, 1), OpsPerTx: 2,
				Make: func(thread, idx int) harness.TxSeq {
					s := mix(uint64(thread)<<32 | uint64(idx))
					x := base + tm.Addr(s%accounts)
					y := base + tm.Addr((s>>8)%accounts)
					return harness.TxSeq{
						func(tx tm.Tx) { tx.Store(x, tx.Load(x)+1) },
						func(tx tm.Tx) { tx.Store(y, tx.Load(y)+1) },
					}
				},
			}
			b.ResetTimer()
			res := harness.RunTLSTM(rt, w)
			b.StopTimer()
			if res.Commits > 0 {
				b.ReportMetric(float64(res.VirtualUnits)/float64(res.Commits), "vunits/tx")
				b.ReportMetric(float64(res.Aborts)/float64(res.Commits), "aborts/tx")
			}
		})
	}
}

// SPECDEPTH sweep on pipelined single-task transactions: deeper windows
// admit more cross-transaction speculation.
func BenchmarkAblationSpecDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt := tlstm.New(tlstm.Config{SpecDepth: depth})
			d := rt.Direct()
			const words = 1 << 10
			base := d.Alloc(words)
			thr := rt.NewThread()
			b.ResetTimer()
			var hs []tlstm.TxHandle
			for i := 0; i < b.N; i++ {
				i := i
				h, err := thr.Submit(func(tk *tlstm.Task) {
					// Disjoint read-mostly work: pipeline-friendly.
					s := mix(uint64(i))
					var acc uint64
					for j := 0; j < 16; j++ {
						acc += tk.Load(base + tm.Addr((s+uint64(j))%words))
					}
					tk.Store(base+tm.Addr(s%words), acc)
				})
				if err != nil {
					b.Fatal(err)
				}
				hs = append(hs, h)
				if len(hs) > 64 {
					hs[0].Wait()
					hs = hs[1:]
				}
			}
			thr.Sync()
			b.StopTimer()
			reportVUnits(b, thr)
		})
	}
}

// Baseline comparison: SwissTM vs TL2 on red-black-tree transactions
// (the SwissTM paper's claim — SwissTM outperforms TL2 on mixed
// workloads thanks to eager W/W detection and timestamp extension —
// should reproduce in work units).
func BenchmarkAblationBaselines(b *testing.B) {
	const treeSize = 1 << 10
	run := func(b *testing.B, atomic func(fn func(tx tm.Tx)), direct tm.Tx, work func() uint64) {
		tr := rbtree.New(direct)
		for k := int64(0); k < treeSize; k++ {
			tr.Insert(direct, k, uint64(k))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			atomic(func(tx tm.Tx) {
				for j := 0; j < 8; j++ {
					tr.Lookup(tx, int64(mix(uint64(i*8+j))%treeSize))
				}
				k := int64(mix(uint64(i)) % treeSize)
				tr.Insert(tx, k, uint64(i))
			})
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(work())/float64(b.N), "vunits/tx")
		}
	}
	b.Run("swisstm", func(b *testing.B) {
		rt := stm.New()
		var st stm.Stats
		run(b, func(fn func(tx tm.Tx)) {
			rt.Atomic(&st, func(tx *stm.Tx) { fn(tx) })
		}, rt.Direct(), func() uint64 { return st.Work })
	})
	b.Run("tl2", func(b *testing.B) {
		rt := tl2.New(20)
		var st tl2.Stats
		run(b, func(fn func(tx tm.Tx)) {
			rt.Atomic(&st, func(tx *tl2.Tx) { fn(tx) })
		}, rt.Direct(), func() uint64 { return st.Work })
	})
}

// The paper's future-work item (§6): redo logging ("the location
// redo-logs have also showed to add substantial overhead") vs in-place
// writes with an undo log. Compares SwissTM (redo) against the
// write-through STM (internal/wtstm) on a write-heavy workload.
func BenchmarkAblationWriteHandling(b *testing.B) {
	const words = 1 << 10
	mkWorkload := func(atomic func(fn func(tx tm.Tx)), direct tm.Tx, work func() uint64) func(b *testing.B) {
		return func(b *testing.B) {
			base := direct.Alloc(words)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atomic(func(tx tm.Tx) {
					s := mix(uint64(i))
					for j := 0; j < 16; j++ {
						a := base + tm.Addr((s+uint64(j)*37)%words)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(work())/float64(b.N), "vunits/tx")
			}
		}
	}
	b.Run("redo-swisstm", func(b *testing.B) {
		rt := stm.New()
		var st stm.Stats
		mkWorkload(func(fn func(tx tm.Tx)) {
			rt.Atomic(&st, func(tx *stm.Tx) { fn(tx) })
		}, rt.Direct(), func() uint64 { return st.Work })(b)
	})
	b.Run("inplace-writethrough", func(b *testing.B) {
		rt := wtstm.New(20)
		var st wtstm.Stats
		mkWorkload(func(fn func(tx tm.Tx)) {
			rt.Atomic(&st, func(tx *wtstm.Tx) { fn(tx) })
		}, rt.Direct(), func() uint64 { return st.Work })(b)
	})
}

// Lock-table sizing: collisions create false conflicts.
func BenchmarkAblationLockTableBits(b *testing.B) {
	for _, bits := range []int{8, 14, 20} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rt := tlstm.New(tlstm.Config{SpecDepth: 2, LockTableBits: bits})
			d := rt.Direct()
			const words = 1 << 12
			base := d.Alloc(words)
			thr := rt.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				i := i
				_ = thr.Atomic(
					func(tk *tlstm.Task) {
						s := mix(uint64(i))
						tk.Store(base+tm.Addr(s%words), s)
					},
					func(tk *tlstm.Task) {
						s := mix(uint64(i) + 7)
						_ = tk.Load(base + tm.Addr(s%words))
					},
				)
			}
			thr.Sync()
			b.StopTimer()
			reportVUnits(b, thr)
		})
	}
}

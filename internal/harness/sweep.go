package harness

import (
	"fmt"
	"path"
	"runtime"

	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txrt"
	"tlstm/internal/wtstm"
)

// A Sweep is one ablation axis: like the paper's ablations (§3.2, §4) it
// varies one runtime setting at a time. Run executes every mix under
// every leg on every engine, each on a freshly built runtime, and checks
// each run's end state, so every sweep doubles as a cross-runtime
// atomicity test for the setting it varies.
type Sweep struct {
	// Title heads the sweep's report.
	Title string
	// Tx is the full-size transaction count per thread.
	Tx int

	depth int // TLSTM SpecDepth
	legs  []leg
	mixes []mix
}

// leg is one value of a sweep's axis: the label segment it adds and the
// runtime setting it makes.
type leg struct {
	name string
	set  func(c *txrt.Config)
}

// mix is one workload a sweep runs under every leg: its label segment
// ("" in a one-mix sweep) and a builder that allocates and lays the
// workload out through d and returns it (the runner fills in its name
// and size) with its end-state invariant, which panics on violation.
type mix struct {
	name  string
	build func(d tm.Tx, threads, txPerThread int) (Workload, func(tm.Tx))
}

// Sweeps is the sweep table, one row per axis: the setting its legs
// vary.
var Sweeps = map[string]Sweep{
	"cm": {
		Title: "Contention-management policy sweep, write-contended", Tx: 20_000, depth: 1,
		legs:  kindLegs(cm.Kinds(), func(c *txrt.Config, k cm.Kind) { c.CM = cm.New(k) }),
		mixes: []mix{counterMix()},
	},
	"mode": {
		// The karma conflict storm is exactly the workload the serialized
		// rung exists for, so the sweep measures what fallback buys.
		Title: "Execution-mode policy sweep, karma conflict storm", Tx: 20_000, depth: 1,
		legs: kindLegs(mode.Policies(), func(c *txrt.Config, p mode.Policy) {
			c.CM = cm.New(cm.KindKarma)
			c.Mode = mode.Config{Policy: p}
		}),
		mixes: []mix{counterMix()},
	},
	"mv": {
		// K = 0 turns multi-versioning off: every scan validates and extends.
		Title: "Multi-version depth sweep, read-mostly", Tx: 10_000, depth: 2,
		legs:  mvLegs(3),
		mixes: []mix{readMostly("90-10", 10), readMostly("99-1", 100)},
	},
}

// engines is the runtime list every sweep runs each (mix, leg) on. start
// builds a fresh runtime from c (TLSTM with SpecDepth depth) and returns
// its direct view and a runner that releases it.
var engines = []struct {
	name  string
	start func(c txrt.Config, depth int) (mem.Direct, func(Workload) Result)
}{
	{"SwissTM", func(c txrt.Config, _ int) (mem.Direct, func(Workload) Result) {
		rt := stm.New(withConfig(c))
		return rt.Direct(), func(w Workload) Result { return RunSTM(rt, w) }
	}},
	{"TL2", func(c txrt.Config, _ int) (mem.Direct, func(Workload) Result) {
		rt := tl2.New(c.LockTableBits, withConfig(c))
		return rt.Direct(), func(w Workload) Result { return RunTL2(rt, w) }
	}},
	{"wtstm", func(c txrt.Config, _ int) (mem.Direct, func(Workload) Result) {
		rt := wtstm.New(c.LockTableBits, withConfig(c))
		return rt.Direct(), func(w Workload) Result { return RunWTSTM(rt, w) }
	}},
	{"TLSTM", func(c txrt.Config, depth int) (mem.Direct, func(Workload) Result) {
		rt := core.New(CoreConfig(c, depth))
		return rt.Direct(), func(w Workload) Result {
			defer rt.Close() // drain the worker pools
			return RunTLSTM(rt, w)
		}
	}},
}

// Run executes the sweep with the given thread count and transactions
// per thread, mix by mix, leg by leg, engine by engine. Each row is
// labeled engine[/mix]/leg.
func (s Sweep) Run(threads, txPerThread int) []Result {
	var out []Result
	for _, m := range s.mixes {
		for _, l := range s.legs {
			for _, e := range engines {
				var c txrt.Config
				l.set(&c)
				d, run := e.start(c, s.depth)
				w, check := m.build(d, threads, txPerThread)
				w.Name, w.Threads, w.TxPerThread = path.Join(e.name, m.name, l.name), threads, txPerThread
				out = append(out, run(w))
				check(d)
			}
		}
	}
	return out
}

// kindLegs makes one leg per kind, labeled with the kind's name.
func kindLegs[K fmt.Stringer](kinds []K, set func(*txrt.Config, K)) []leg {
	var legs []leg
	for _, k := range kinds {
		legs = append(legs, leg{k.String(), func(c *txrt.Config) { set(c, k) }})
	}
	return legs
}

// mvLegs makes one leg per retained version depth 0..max.
func mvLegs(max int) []leg {
	var legs []leg
	for k := 0; k <= max; k++ {
		legs = append(legs, leg{fmt.Sprintf("mv%d", k), func(c *txrt.Config) { c.MVDepth = k }})
	}
	return legs
}

// hotFill is the number of private filler reads each contended
// transaction performs after the hot-word store: the work an eager
// runtime does while holding the hot word's write lock.
const hotFill = 48

// hotWords is the region that opens a counter mix's layout: the hot
// word is its first word, the rest keeps the counters and fillers at
// fixed offsets from it.
const hotWords = 512

// counterMix lays out a hot word, one private counter per thread and a
// filler region per thread. Every transaction increments the hot word
// (taking its write lock first), yields, reads its filler region and
// increments the thread's private counter, so every transaction is a
// committer. The engines never yield on their own, so the yield
// after the hot store is what makes the transactions overlap on any CPU
// count: an eager runtime holds the hot lock across a scheduler round
// and every other thread's increment runs into it — the sustained
// write/write conflict the contention managers exist to resolve — and a
// lazy one reads the hot word a round before it commits.
//
// The invariant: the hot word holds exactly its increments and each
// private counter its thread's transaction count, so a setting that
// drops, doubles or tears an update is caught by the sweep itself.
func counterMix() mix {
	return mix{"", func(d tm.Tx, threads, txPerThread int) (Workload, func(tm.Tx)) {
		hot := d.Alloc(hotWords + threads + threads*hotFill)
		counters := hot + hotWords
		fillers := counters + tm.Addr(threads)
		hotWant := uint64(threads * txPerThread)
		w := Workload{
			OpsPerTx: 2,
			Make: func(thread, idx int) TxSeq {
				mine := counters + tm.Addr(thread)
				fill := fillers + tm.Addr(thread*hotFill)
				return TxSeq{func(tx tm.Tx) {
					tx.Store(hot, tx.Load(hot)+1)
					runtime.Gosched()
					sink := tm.SumWords(tx, fill, hotFill)
					tx.Store(mine, tx.Load(mine)+1+sink)
				}}
			},
		}
		return w, func(d tm.Tx) {
			if got := d.Load(hot); got != hotWant {
				panic(fmt.Sprintf("harness: sweep hot counter = %d, want %d (atomicity violated)", got, hotWant))
			}
			for th := 0; th < threads; th++ {
				if got := d.Load(counters + tm.Addr(th)); got != uint64(txPerThread) {
					panic(fmt.Sprintf("harness: sweep thread %d counter = %d, want %d", th, got, txPerThread))
				}
			}
		}
	}}
}

// readMostlyWords is the number of shared accounts the read-mostly mix
// scans: large enough that a read-only transaction's validated read set
// is worth eliding, small enough that writers keep every account warm.
const readMostlyWords = 32

// readMostlyPasses is how many times a read-only scan traverses the
// accounts, yielding between passes so writers commit mid-scan on any
// CPU count: that is what makes the validated path pay for extensions,
// revalidations and (TL2) aborts that the wait-free path never performs.
const readMostlyPasses = 4

// readMostly is the account-scan mix: one transaction in writerEvery is
// a writer that transfers one unit between two accounts (total
// preserved), the rest are declared read-only scans summing every
// account. Because transfers conserve the (wrapping) total, any
// consistent snapshot sums to zero — each scan asserts it, so every
// multi-version read is checked against tearing and too-new values, not
// just the end state.
func readMostly(name string, writerEvery int) mix {
	return mix{name, func(d tm.Tx, threads, txPerThread int) (Workload, func(tm.Tx)) {
		base := d.Alloc(readMostlyWords)
		w := Workload{
			OpsPerTx: 1,
			Make: func(thread, idx int) TxSeq {
				if idx%writerEvery == 0 {
					src := (thread*7 + idx) % readMostlyWords
					dst := (src + 1 + idx%(readMostlyWords-1)) % readMostlyWords
					return TxSeq{func(tx tm.Tx) {
						tx.Store(base+tm.Addr(src), tx.Load(base+tm.Addr(src))-1)
						tx.Store(base+tm.Addr(dst), tx.Load(base+tm.Addr(dst))+1)
					}}
				}
				return TxSeq{func(tx tm.Tx) {
					var sum uint64
					for p := 0; p < readMostlyPasses; p++ {
						if p > 0 {
							runtime.Gosched()
						}
						sum += tm.SumWords(tx, base, readMostlyWords)
					}
					if sum != 0 {
						panic(fmt.Sprintf("harness: read-mostly scan saw inconsistent snapshot (sum=%d, want 0)", sum))
					}
				}}
			},
			ReadOnly: func(thread, idx int) bool { return idx%writerEvery != 0 },
		}
		return w, func(d tm.Tx) {
			if sum := tm.SumWords(d, base, readMostlyWords); sum != 0 {
				panic(fmt.Sprintf("harness: read-mostly end state sum = %d, want 0 (atomicity violated)", sum))
			}
		}
	}}
}

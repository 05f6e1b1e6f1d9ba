package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlstm/internal/tm"
)

// The fundamental TLS property (paper §2): within a user-thread, the
// decomposed speculative execution must be indistinguishable from the
// sequential execution of the same program — every read observes all
// past-task writes and no future-task writes.
//
// We generate random straight-line programs over a small word array,
// split them into random task boundaries, run them on TLSTM with a
// single user-thread, and compare the final memory against a sequential
// interpreter.

// seqOp is one "v := mem[src]; mem[dst] = v + add" step.
type seqOp struct {
	Src uint8
	Dst uint8
	Add uint8
}

const seqWords = 24

func runSequential(ops []seqOp) [seqWords]uint64 {
	var m [seqWords]uint64
	for _, op := range ops {
		v := m[op.Src%seqWords]
		m[op.Dst%seqWords] = v + uint64(op.Add)
	}
	return m
}

func runSpeculative(t *testing.T, ops []seqOp, cuts []int, depth int) [seqWords]uint64 {
	t.Helper()
	rt := New(Config{SpecDepth: depth, LockTableBits: 12})
	thr := rt.NewThread()
	d := rt.Direct()
	base := d.Alloc(seqWords)

	// Split ops at cut points into task bodies.
	var fns []TaskFunc
	prev := 0
	bounds := append(append([]int{}, cuts...), len(ops))
	for _, b := range bounds {
		lo, hi := prev, b
		prev = b
		slice := ops[lo:hi]
		fns = append(fns, func(tk *Task) {
			for _, op := range slice {
				v := tk.Load(base + tm.Addr(op.Src%seqWords))
				tk.Store(base+tm.Addr(op.Dst%seqWords), v+uint64(op.Add))
			}
		})
	}
	if err := thr.shipAtomic(fns...); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	thr.Sync()

	var m [seqWords]uint64
	for i := 0; i < seqWords; i++ {
		m[i] = d.Load(base + tm.Addr(i))
	}
	return m
}

func TestSequentialEquivalenceFixedCases(t *testing.T) {
	cases := []struct {
		name string
		ops  []seqOp
		cuts []int
	}{
		{
			name: "war-chain",
			ops: []seqOp{
				{Src: 0, Dst: 1, Add: 1}, // t1: m1 = m0+1
				{Src: 1, Dst: 2, Add: 1}, // t2: m2 = m1+1 (reads t1's write)
				{Src: 2, Dst: 3, Add: 1}, // t3: m3 = m2+1 (reads t2's write)
			},
			cuts: []int{1, 2},
		},
		{
			name: "waw-same-loc",
			ops: []seqOp{
				{Src: 0, Dst: 5, Add: 1},
				{Src: 0, Dst: 5, Add: 2},
				{Src: 0, Dst: 5, Add: 3},
			},
			cuts: []int{1, 2},
		},
		{
			name: "read-then-overwritten",
			ops: []seqOp{
				{Src: 7, Dst: 8, Add: 9}, // t1 reads m7 (0), writes m8=9
				{Src: 0, Dst: 7, Add: 5}, // t2 writes m7=5 — no WAR with t1's read (t1 past)
				{Src: 7, Dst: 9, Add: 0}, // t2 reads m7 → 5
			},
			cuts: []int{1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runSequential(tc.ops)
			for depth := len(tc.cuts) + 1; depth <= 4; depth++ {
				got := runSpeculative(t, tc.ops, tc.cuts, depth)
				if got != want {
					t.Fatalf("depth %d: speculative %v != sequential %v", depth, got, want)
				}
			}
		})
	}
}

func TestSequentialEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 120; iter++ {
		nOps := 2 + rng.Intn(18)
		ops := make([]seqOp, nOps)
		for i := range ops {
			ops[i] = seqOp{
				Src: uint8(rng.Intn(seqWords)),
				Dst: uint8(rng.Intn(seqWords)),
				Add: uint8(1 + rng.Intn(9)),
			}
		}
		nTasks := 1 + rng.Intn(4)
		if nTasks > nOps {
			nTasks = nOps
		}
		cutSet := map[int]bool{}
		for len(cutSet) < nTasks-1 {
			cutSet[1+rng.Intn(nOps-1)] = true
		}
		var cuts []int
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		// Sort cuts.
		for i := 0; i < len(cuts); i++ {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		want := runSequential(ops)
		got := runSpeculative(t, ops, cuts, nTasks+rng.Intn(2))
		if got != want {
			t.Fatalf("iter %d (ops %v, cuts %v): speculative %v != sequential %v",
				iter, ops, cuts, got, want)
		}
	}
}

// Property-based variant driven by testing/quick.
func TestQuickSequentialEquivalence(t *testing.T) {
	f := func(rawOps []seqOp, rawCut uint8) bool {
		if len(rawOps) == 0 {
			return true
		}
		if len(rawOps) > 24 {
			rawOps = rawOps[:24]
		}
		cut := 1 + int(rawCut)%len(rawOps)
		var cuts []int
		if cut < len(rawOps) {
			cuts = []int{cut}
		}
		want := runSequential(rawOps)
		got := runSpeculative(t, rawOps, cuts, 2)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Several transactions submitted back-to-back on one thread must apply
// in program order even when the runtime speculates across them.
func TestSequentialEquivalenceAcrossTransactions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		var allOps [][]seqOp
		total := 0
		for txi := 0; txi < 5; txi++ {
			n := 1 + rng.Intn(6)
			ops := make([]seqOp, n)
			for i := range ops {
				ops[i] = seqOp{
					Src: uint8(rng.Intn(seqWords)),
					Dst: uint8(rng.Intn(seqWords)),
					Add: uint8(1 + rng.Intn(9)),
				}
			}
			allOps = append(allOps, ops)
			total += n
		}

		var flat []seqOp
		for _, ops := range allOps {
			flat = append(flat, ops...)
		}
		want := runSequential(flat)

		rt := New(Config{SpecDepth: 3, LockTableBits: 12})
		thr := rt.NewThread()
		d := rt.Direct()
		base := d.Alloc(seqWords)
		for _, ops := range allOps {
			ops := ops
			// Each transaction split into up to two tasks.
			mid := len(ops) / 2
			var fns []TaskFunc
			if mid > 0 {
				fns = append(fns, taskFor(ops[:mid], base))
				fns = append(fns, taskFor(ops[mid:], base))
			} else {
				fns = append(fns, taskFor(ops, base))
			}
			if _, err := thr.Submit(fns...); err != nil {
				t.Fatal(err)
			}
		}
		thr.Sync()

		var got [seqWords]uint64
		for i := 0; i < seqWords; i++ {
			got[i] = d.Load(base + tm.Addr(i))
		}
		if got != want {
			t.Fatalf("iter %d: pipelined %v != sequential %v", iter, got, want)
		}
	}
}

func taskFor(ops []seqOp, base tm.Addr) TaskFunc {
	return func(tk *Task) {
		for _, op := range ops {
			v := tk.Load(base + tm.Addr(op.Src%seqWords))
			tk.Store(base+tm.Addr(op.Dst%seqWords), v+uint64(op.Add))
		}
	}
}

// TestSeqEquivHotChains is the directed regression for the read path's
// gate order: one thread, three-task transactions chaining transfers
// over four hot words, so nearly every read is served from a past task's
// redo chain while another past task is about to stack on the same pair.
// Load used to re-resolve the chain first and run the WAR gate second;
// a past writer that stacked and completed in between was folded into
// lastWriter before the read was logged, and the stale value was never
// compared again. Before the fix this diverged from the sequential model
// in most runs (there is no other thread: every lost update is
// intra-thread).
func TestSeqEquivHotChains(t *testing.T) {
	const (
		tasks    = 3
		accounts = 4
		txs      = 5000
		initial  = 1_000_000
	)
	rt := New(Config{SpecDepth: tasks, LockTableBits: 12})
	defer rt.Close()
	thr := rt.NewThread()
	d := rt.Direct()
	base := d.Alloc(accounts)
	var model [accounts]uint64
	for i := range model {
		model[i] = initial
		d.Store(base+tm.Addr(i), initial)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < txs; i++ {
		var idx [tasks + 1]int
		for j := range idx {
			idx[j] = rng.Intn(accounts)
		}
		amt := uint64(rng.Intn(100))
		var fns [tasks]TaskFunc
		for j := range fns {
			fi, ti := idx[j], idx[j+1]
			from, to := base+tm.Addr(fi), base+tm.Addr(ti)
			fns[j] = func(tk *Task) {
				if f := tk.Load(from); from != to && f >= amt {
					tk.Store(from, f-amt)
					tk.Store(to, tk.Load(to)+amt)
				}
			}
			if fi != ti && model[fi] >= amt {
				model[fi] -= amt
				model[ti] += amt
			}
		}
		if err := thr.shipAtomic(fns[:]...); err != nil {
			t.Fatal(err)
		}
	}
	thr.Sync()
	for i, want := range model {
		if got := d.Load(base + tm.Addr(i)); got != want {
			t.Fatalf("account %d = %d, sequential model says %d", i, got, want)
		}
	}
}

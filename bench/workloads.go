package main

import (
	"fmt"

	"tlstm/internal/rbtree"
	"tlstm/internal/sb7"
	"tlstm/internal/tm"
	"tlstm/internal/xrand"
)

// body is one task body, written once against tm.Tx and run unchanged on
// the four runtimes and on mem.Direct. TLSTM runs a transaction's bodies
// as parallel speculative tasks; the flat runtimes run their
// concatenation as one transaction.
type body func(tx tm.Tx)

const maxTasks = 3

// cursor is the only thing a pre-built body reads besides the
// pre-generated inputs: the index of the transaction being run. The
// driver advances it between transactions and allocates nothing per
// transaction. Bodies are re-execution-safe: each execution overwrites
// its own res slot, and the driver reads res only after Atomic returned.
type cursor struct {
	i   int
	res [maxTasks]uint64
	// acc folds per-transaction outputs into the end-state digest
	// (driver-owned, updated by the workload's ok).
	acc uint64
	// tx is the open tx span of a traced run (-1 otherwise); body spans
	// name it as their parent.
	tx int32
	_  [64]byte
}

// expect is one word of an end-state digest as predicted from the
// inputs alone; unknown words are only compared across runtimes.
type expect struct {
	v     uint64
	known bool
}

// workload is one of the four named input sets. gen fills the receiver
// with inputs made from the seed; everything else only reads them.
type workload interface {
	// shape reports user-threads wanted, TLSTM tasks per transaction,
	// the TLSTM SpecDepth, the pinned sizing constant (transactions per
	// second of measured time, summed over one slice of each runtime on
	// the reference machine) and the latency sampling stride.
	shape() shape
	gen(seed uint64, threads, total int)
	// populate builds the workload's data through d and returns the
	// per-runtime handle bodies and digest take.
	populate(d tm.Tx) any
	// bodies returns the task bodies of one user-thread; sp holds one
	// span buffer per task, nil in untraced runs.
	bodies(data any, thread int, cur *cursor, sp []*spanBuf) []body
	// ok checks the outputs of the transaction the cursor names.
	ok(cur *cursor) bool
	// digest reads the end state after every thread ran done
	// transactions; want predicts it.
	digest(d tm.Tx, data any, curs []*cursor) []uint64
	want(done int) []expect
	// deterministic reports whether the digest must be identical on
	// every runtime (single user-thread workloads).
	deterministic() bool
}

type shape struct {
	threads   int
	tasks     int
	specDepth int
	txPerSec  float64
	latEvery  int
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "smalltx":
		return &smallTx{}, nil
	case "rbtree_read":
		return &rbtreeRead{}, nil
	case "sb7_rw":
		return &sb7RW{}, nil
	case "bank_hot":
		return &bankHot{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------------
// smalltx: Load+Store increment of one of 8 private words.
// ---------------------------------------------------------------------------

const smallWords = 8

type smallTx struct {
	pick []uint8
}

func (w *smallTx) shape() shape {
	return shape{threads: 1, tasks: 1, specDepth: 2, txPerSec: 270e3, latEvery: 8}
}

func (w *smallTx) deterministic() bool { return true }

func (w *smallTx) gen(seed uint64, _, total int) {
	w.pick = make([]uint8, total)
	for i := range w.pick {
		w.pick[i] = uint8(xrand.Splitmix(&seed) % smallWords)
	}
}

func (w *smallTx) populate(d tm.Tx) any {
	var words [smallWords]tm.Addr
	for i := range words {
		words[i] = d.Alloc(1)
	}
	return &words
}

func (w *smallTx) bodies(data any, _ int, cur *cursor, sp []*spanBuf) []body {
	words := data.(*[smallWords]tm.Addr)
	s := sp[0]
	return []body{func(tx tm.Tx) {
		op := s.opBegin(cur.i)
		a := words[w.pick[cur.i]]
		tx.Store(a, tx.Load(a)+1)
		s.opEnd(op)
	}}
}

func (w *smallTx) ok(*cursor) bool { return true }

func (w *smallTx) digest(d tm.Tx, data any, _ []*cursor) []uint64 {
	words := data.(*[smallWords]tm.Addr)
	out := make([]uint64, smallWords)
	for i, a := range words {
		out[i] = d.Load(a)
	}
	return out
}

func (w *smallTx) want(done int) []expect {
	out := make([]expect, smallWords)
	for i := range out {
		out[i].known = true
	}
	for _, p := range w.pick[:done] {
		out[p].v++
	}
	return out
}

// ---------------------------------------------------------------------------
// rbtree_read: Fig. 1a point — 32 lookups in a 2^14-key tree, 2 tasks.
// ---------------------------------------------------------------------------

const (
	rbKeys    = 1 << 14
	rbLookups = 32
	rbPoison  = 1 << 40 // added for a missed lookup; no sum of keys reaches it
	rbTasks   = 2
)

type rbtreeRead struct {
	keys []uint16 // rbLookups per transaction
	sums []uint32 // expected sum of looked-up values per transaction
}

func (w *rbtreeRead) shape() shape {
	return shape{threads: 1, tasks: rbTasks, specDepth: rbTasks, txPerSec: 13e3, latEvery: 8}
}

func (w *rbtreeRead) deterministic() bool { return true }

func (w *rbtreeRead) gen(seed uint64, _, total int) {
	w.keys = make([]uint16, total*rbLookups)
	w.sums = make([]uint32, total)
	for i := range w.keys {
		k := uint16(xrand.Splitmix(&seed) % rbKeys)
		w.keys[i] = k
		w.sums[i/rbLookups] += uint32(k)
	}
}

func (w *rbtreeRead) populate(d tm.Tx) any {
	tr := rbtree.New(d)
	for k := int64(0); k < rbKeys; k++ {
		tr.Insert(d, k, uint64(k))
	}
	return tr
}

func (w *rbtreeRead) bodies(data any, _ int, cur *cursor, sp []*spanBuf) []body {
	tr := data.(rbtree.Tree)
	out := make([]body, rbTasks)
	for k := range out {
		k, s := k, sp[k]
		lo, hi := k*rbLookups/rbTasks, (k+1)*rbLookups/rbTasks
		out[k] = func(tx tm.Tx) {
			op := s.opBegin(cur.i)
			var sum uint64
			for _, key := range w.keys[cur.i*rbLookups+lo : cur.i*rbLookups+hi] {
				v, found := tr.Lookup(tx, int64(key))
				if !found {
					v = rbPoison
				}
				sum += v
			}
			cur.res[k] = sum
			s.opEnd(op)
		}
	}
	return out
}

func (w *rbtreeRead) ok(cur *cursor) bool {
	sum := cur.res[0] + cur.res[1]
	cur.acc += sum
	return sum == uint64(w.sums[cur.i])
}

func (w *rbtreeRead) digest(d tm.Tx, data any, curs []*cursor) []uint64 {
	return []uint64{curs[0].acc, uint64(data.(rbtree.Tree).Size(d))}
}

func (w *rbtreeRead) want(done int) []expect {
	var sum uint64
	for _, s := range w.sums[:done] {
		sum += uint64(s)
	}
	return []expect{{sum, true}, {rbKeys, true}}
}

// ---------------------------------------------------------------------------
// sb7_rw: STMBench7 long traversals, 60% read-only, 3 tasks at the top
// branches.
// ---------------------------------------------------------------------------

const sb7Tasks = 3

type sb7RW struct {
	ro     []bool
	seeds  []uint64
	visits uint64 // atomic parts one full traversal visits
}

func (w *sb7RW) shape() shape {
	return shape{threads: 1, tasks: sb7Tasks, specDepth: sb7Tasks, txPerSec: 800, latEvery: 1}
}

func (w *sb7RW) deterministic() bool { return true }

// gen makes exactly 6 of every 10 consecutive traversals read-only; the
// seed chooses which six, so throughput does not ride on a seed's luck
// with the mix.
func (w *sb7RW) gen(seed uint64, _, total int) {
	w.ro = make([]bool, total)
	w.seeds = make([]uint64, total)
	for i := range w.seeds {
		w.seeds[i] = xrand.Splitmix(&seed)
	}
	for lo := 0; lo < total; lo += 10 {
		block := w.ro[lo:min(lo+10, total)]
		for i := range block {
			block[i] = i < 6
		}
		for i := len(block) - 1; i > 0; i-- {
			j := int(xrand.Splitmix(&seed) % uint64(i+1))
			block[i], block[j] = block[j], block[i]
		}
	}
}

func (w *sb7RW) populate(d tm.Tx) any {
	b, err := sb7.Build(d, sb7.Default())
	if err != nil {
		panic(err) // Default() is valid by construction
	}
	w.visits = uint64(b.TotalAtomicVisits)
	return b
}

func (w *sb7RW) bodies(data any, _ int, cur *cursor, sp []*spanBuf) []body {
	b := data.(*sb7.Bench)
	roots, level := b.SplitRoots(sb7Tasks)
	out := make([]body, sb7Tasks)
	for k := range out {
		k, s, root := k, sp[k], roots[k]
		out[k] = func(tx tm.Tx) {
			op := s.opBegin(cur.i)
			if w.ro[cur.i] {
				cur.res[k] = uint64(b.TraverseRead(tx, root, level))
			} else {
				cur.res[k] = uint64(b.TraverseWrite(tx, root, level, w.seeds[cur.i]))
			}
			s.opEnd(op)
		}
	}
	return out
}

func (w *sb7RW) ok(cur *cursor) bool {
	return cur.res[0]+cur.res[1]+cur.res[2] == w.visits
}

func (w *sb7RW) digest(d tm.Tx, data any, _ []*cursor) []uint64 {
	b := data.(*sb7.Bench)
	return []uint64{b.TraversedCount(d), b.SumBuildDates(d)}
}

func (w *sb7RW) want(done int) []expect {
	var writes uint64
	for _, ro := range w.ro[:done] {
		if !ro {
			writes++
		}
	}
	// Every task of a write traversal bumps the counter once.
	return []expect{{writes * sb7Tasks, true}, {}}
}

// ---------------------------------------------------------------------------
// bank_hot: 2 user-threads, 2-task transfers along a random 3-account
// path over 32 shared accounts (the tlstm-stress soak shape).
// ---------------------------------------------------------------------------

const (
	bankAccounts = 32
	bankInitial  = 1000
	bankTasks    = 2
)

type bankHot struct {
	total int
	path  [][bankTasks + 1]uint8 // per thread: total consecutive entries
	amt   []uint8
}

func (w *bankHot) shape() shape {
	return shape{threads: 2, tasks: bankTasks, specDepth: bankTasks, txPerSec: 57e3, latEvery: 8}
}

func (w *bankHot) deterministic() bool { return false }

func (w *bankHot) gen(seed uint64, threads, total int) {
	w.total = total
	w.path = make([][bankTasks + 1]uint8, threads*total)
	w.amt = make([]uint8, threads*total)
	for i := range w.path {
		for j := range w.path[i] {
			w.path[i][j] = uint8(xrand.Splitmix(&seed) % bankAccounts)
		}
		w.amt[i] = uint8(xrand.Splitmix(&seed) % 100)
	}
}

func (w *bankHot) populate(d tm.Tx) any {
	base := d.Alloc(bankAccounts)
	for i := 0; i < bankAccounts; i++ {
		d.Store(base+tm.Addr(i), bankInitial)
	}
	return base
}

// Task k moves the amount from account k to account k+1 of the path, so
// task 2 reads what task 1 wrote: forwarding and task restarts run.
func (w *bankHot) bodies(data any, thread int, cur *cursor, sp []*spanBuf) []body {
	base := data.(tm.Addr)
	off := thread * w.total
	out := make([]body, bankTasks)
	for k := range out {
		k, s := k, sp[k]
		out[k] = func(tx tm.Tx) {
			op := s.opBegin(cur.i)
			p := &w.path[off+cur.i]
			from, to := base+tm.Addr(p[k]), base+tm.Addr(p[k+1])
			amt := uint64(w.amt[off+cur.i])
			if f := tx.Load(from); from != to && f >= amt {
				tx.Store(from, f-amt)
				tx.Store(to, tx.Load(to)+amt)
			}
			s.opEnd(op)
		}
	}
	return out
}

func (w *bankHot) ok(*cursor) bool { return true }

func (w *bankHot) digest(d tm.Tx, data any, _ []*cursor) []uint64 {
	base := data.(tm.Addr)
	var total uint64
	for i := 0; i < bankAccounts; i++ {
		total += d.Load(base + tm.Addr(i))
	}
	return []uint64{total}
}

func (w *bankHot) want(int) []expect {
	return []expect{{bankAccounts * bankInitial, true}}
}

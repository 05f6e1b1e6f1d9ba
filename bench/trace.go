package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/tm"
)

// Everything here observes the engine from outside: spans around the
// calls the driver makes into a runtime and around the bodies a runtime
// calls back, and counting decorators on the three pluggable interfaces
// (tm.Tx, clock.Source, cm.Policy). A decorator increments and never
// reads a clock, so the access path pays one add per call.

var epoch = time.Now()

// now is nanoseconds on the monotonic clock since process start.
func now() int64 { return int64(time.Since(epoch)) }

const (
	spanTx = iota
	spanBody
	spanOp
)

var spanNames = [...]string{"tx", "body", "op"}

// span is one timed interval. Parent indexes the thread's tx buffer for
// a body span and the span's own buffer for an op span; a tx span has
// none (-1). Tx is the transaction's index in its thread's stream, the
// identifier the spans of one transaction share.
type span struct {
	Start, End int64
	Tx         int32
	Parent     int32
	Kind       uint8
}

// spanBuf is a preallocated span buffer with one writer at a time: the
// driver goroutine for a thread's tx spans, whichever goroutine runs
// task k's body for the body and op spans of (thread, task k) — a closed
// loop never has two executions of the same task index in flight. A nil
// buffer records nothing, which is how untraced runs share the bodies.
type spanBuf struct {
	s       []span
	body    int32 // open body span, the parent of op spans
	dropped int
	_       [64]byte
}

func newSpanBuf(capacity int) *spanBuf {
	s := make([]span, capacity)
	clear(s) // touch every page now, not inside the first timed slice
	return &spanBuf{s: s[:0], body: -1}
}

func (b *spanBuf) begin(kind uint8, parent int32, tx int) int32 {
	if len(b.s) == cap(b.s) {
		b.dropped++
		return -1
	}
	b.s = append(b.s, span{Start: now(), Tx: int32(tx), Parent: parent, Kind: kind})
	return int32(len(b.s) - 1)
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.s[i].End = now()
	}
}

// endBody closes body span i and any op span a restart's unwinding left
// open under it.
func (b *spanBuf) endBody(i int32) {
	if i < 0 {
		return
	}
	t := now()
	for j := int(i); j < len(b.s); j++ {
		if b.s[j].End == 0 {
			b.s[j].End = t
		}
	}
	b.body = -1
}

func (b *spanBuf) opBegin(tx int) int32 {
	if b == nil {
		return -1
	}
	return b.begin(spanOp, b.body, tx)
}

func (b *spanBuf) opEnd(i int32) {
	if b != nil {
		b.end(i)
	}
}

func (b *spanBuf) reset() {
	b.s = b.s[:0]
	b.body = -1
	b.dropped = 0
}

// countTx counts the loads and stores a body issues, re-executions
// included. One per (thread, task): single writer at a time, like the
// span buffers.
type countTx struct {
	tm.Tx         // the runtime's transaction for the execution under way
	loads, stores uint64
	_             [64]byte
}

func (c *countTx) Load(a tm.Addr) uint64 {
	c.loads++
	return c.Tx.Load(a)
}

func (c *countTx) Store(a tm.Addr, v uint64) {
	c.stores++
	c.Tx.Store(a, v)
}

// lossyTx drops every second Store: the deliberately broken body the
// smoke test uses to prove that a wrong end state fails the run.
type lossyTx struct {
	tm.Tx
	n uint64
	_ [64]byte
}

func (l *lossyTx) Store(a tm.Addr, v uint64) {
	if l.n++; l.n%2 == 1 {
		l.Tx.Store(a, v)
	}
}

// recTx records the address stream and the per-transaction set sizes the
// isolated layer timings replay (layers.go).
type recTx struct {
	tm.Tx
	rec *recording
}

type recording struct {
	addrs  []tm.Addr // every access, in program order
	store  []bool    // parallel to addrs
	txEnds []int     // len(addrs) after each transaction
}

func (r *recTx) Load(a tm.Addr) uint64 {
	r.rec.addrs = append(r.rec.addrs, a)
	r.rec.store = append(r.rec.store, false)
	return r.Tx.Load(a)
}

func (r *recTx) Store(a tm.Addr, v uint64) {
	r.rec.addrs = append(r.rec.addrs, a)
	r.rec.store = append(r.rec.store, true)
	r.Tx.Store(a, v)
}

// paddedCount keeps each decorator counter on its own cache line:
// workers of both user-threads bump them.
type paddedCount struct {
	atomic.Uint64
	_ [56]byte
}

// countClock counts the calls a runtime makes into its commit clock.
type countClock struct {
	clock.Source
	now, tick, observe paddedCount
}

func (c *countClock) Now() uint64 {
	c.now.Add(1)
	return c.Source.Now()
}

func (c *countClock) Tick(p *clock.Probe) uint64 {
	c.tick.Add(1)
	return c.Source.Tick(p)
}

func (c *countClock) Observe(v uint64, p *clock.Probe) uint64 {
	c.observe.Add(1)
	return c.Source.Observe(v, p)
}

// countPolicy counts the calls a runtime makes into its contention
// manager.
type countPolicy struct {
	cm.Policy
	conflicts, aborts, commits paddedCount
}

func (c *countPolicy) OnConflict(self *cm.Self, owner *locktable.OwnerRef) cm.Decision {
	c.conflicts.Add(1)
	return c.Policy.OnConflict(self, owner)
}

func (c *countPolicy) OnAbort(self *cm.Self) int {
	c.aborts.Add(1)
	return c.Policy.OnAbort(self)
}

func (c *countPolicy) OnCommit(self *cm.Self) {
	c.commits.Add(1)
	c.Policy.OnCommit(self)
}

// sliceSpans is what one traced slice of one engine adds up to.
type sliceSpans struct {
	txs     int
	txNs    int64 // Σ tx span
	selfNs  int64 // Σ (tx span − union of its body spans)
	unionNs int64 // Σ union of a transaction's body spans
	bodyNs  int64 // Σ body spans (parallel tasks counted each)
	ops     int
	loads   uint64
	stores  uint64
	dropped int
}

// foldSpans adds up one thread's spans: txb holds its tx spans in order,
// tasks the body/op spans per task, each also in transaction order.
func foldSpans(txb *spanBuf, tasks []*spanBuf, out *sliceSpans) {
	next := make([]int, len(tasks))
	var iv [][2]int64
	for ti := range txb.s {
		t := &txb.s[ti]
		iv = iv[:0]
		for k, tb := range tasks {
			for ; next[k] < len(tb.s) && tb.s[next[k]].Tx <= t.Tx; next[k]++ {
				sp := &tb.s[next[k]]
				switch {
				case sp.Tx != t.Tx: // its tx span was dropped
				case sp.Kind == spanOp:
					out.ops++
				default:
					out.bodyNs += sp.End - sp.Start
					iv = append(iv, [2]int64{max(sp.Start, t.Start), min(sp.End, t.End)})
				}
			}
		}
		// A handful of intervals per transaction: insertion sort, no
		// allocation per transaction.
		for a := 1; a < len(iv); a++ {
			for b := a; b > 0 && iv[b][0] < iv[b-1][0]; b-- {
				iv[b], iv[b-1] = iv[b-1], iv[b]
			}
		}
		var union, hi int64
		hi = t.Start
		for _, x := range iv {
			if x[1] <= hi {
				continue
			}
			union += x[1] - max(x[0], hi)
			hi = x[1]
		}
		out.txs++
		out.txNs += t.End - t.Start
		out.unionNs += union
		out.selfNs += t.End - t.Start - union
	}
	out.dropped += txb.dropped
	for _, tb := range tasks {
		out.dropped += tb.dropped
	}
}

// dumpSpan is the on-disk form of a span (bench/out/trace-<workload>.json).
type dumpSpan struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: none
	Tx     int32  `json:"tx"`
	Thread int    `json:"thread"`
	Task   int    `json:"task"` // -1 for tx spans
}

// dumpTxs bounds the span file: the first transactions of each thread's
// first traced slice, per engine.
const dumpTxs = 2000

// collectDump copies the spans of one thread's first dumpTxs
// transactions, assigning file-wide ids.
func collectDump(dst []dumpSpan, thread int, txb *spanBuf, tasks []*spanBuf) []dumpSpan {
	n := min(dumpTxs, len(txb.s))
	txID := make([]int, n)
	for i := 0; i < n; i++ {
		t := txb.s[i]
		txID[i] = len(dst)
		dst = append(dst, dumpSpan{len(dst), spanNames[spanTx], t.Start, t.End, -1, t.Tx, thread, -1})
	}
	for k, tb := range tasks {
		ids := make([]int, len(tb.s))
		for i, sp := range tb.s {
			parent := -1
			switch {
			case sp.Kind == spanBody && int(sp.Parent) < n && sp.Parent >= 0:
				parent = txID[sp.Parent]
			case sp.Kind == spanOp && sp.Parent >= 0 && ids[sp.Parent] >= 0:
				parent = ids[sp.Parent]
			}
			if parent < 0 {
				ids[i] = -1
				if sp.Kind == spanBody {
					break // past the first n transactions
				}
				continue
			}
			ids[i] = len(dst)
			dst = append(dst, dumpSpan{len(dst), spanNames[sp.Kind], sp.Start, sp.End, parent, sp.Tx, thread, k})
		}
	}
	return dst
}

func writeTraceFile(dir, workload string, engines map[string][]dumpSpan) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": engines})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

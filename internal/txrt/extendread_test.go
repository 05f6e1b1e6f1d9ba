package txrt_test

import (
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
)

// observeHook is a commit clock whose Observe — the first step of a
// snapshot extension — runs hook once before answering.
type observeHook struct {
	clock.Source
	hook func()
}

func (c *observeHook) Observe(v uint64, p *clock.Probe) uint64 {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.Source.Observe(v, p)
}

// A read whose version is past the snapshot extends the snapshot, and
// the extension validates only the reads already logged: a commit that
// lands between the read and the extension displaces the word just read
// without failing it. The read must therefore be taken again at the
// extended snapshot — otherwise the attempt returns the displaced value
// and, reading the word a second time, sees two values of it (and a
// read-only transaction commits that view). Directed on SwissTM and on
// both of core's paths for a one-task transaction.
func TestReadAfterExtensionRereads(t *testing.T) {
	// leg builds one runtime on ck: its direct handle, the measured
	// transaction, a helper that commits x = v from another context, and
	// the runtime's Close.
	type leg func(ck clock.Source) (d mem.Direct, run func(body func(tm.Tx)), helper func(x tm.Addr, v uint64), close func())
	coreLeg := func(submit bool) leg {
		return func(ck clock.Source) (mem.Direct, func(func(tm.Tx)), func(tm.Addr, uint64), func()) {
			c := core.New(core.Config{SpecDepth: 2, LockTableBits: 12, Clock: ck})
			thr, h := c.NewThread(), c.NewThread()
			run := func(body func(tm.Tx)) { _ = thr.Atomic(func(tk *core.Task) { body(tk) }) }
			if submit {
				run = func(body func(tm.Tx)) {
					hd, _ := thr.Submit(func(tk *core.Task) { body(tk) })
					hd.Wait()
				}
			}
			helper := func(x tm.Addr, v uint64) { _ = h.Atomic(func(tk *core.Task) { tk.Store(x, v) }) }
			return c.Direct(), run, helper, c.Close
		}
	}
	legs := map[string]leg{
		"stm": func(ck clock.Source) (mem.Direct, func(func(tm.Tx)), func(tm.Addr, uint64), func()) {
			s := stm.New(stm.WithClock(ck), stm.WithLockTableBits(12))
			w, h := s.NewWorker(), s.NewWorker()
			return s.Direct(),
				func(body func(tm.Tx)) { w.Atomic(func(tx *stm.Tx) { body(tx) }) },
				func(x tm.Addr, v uint64) { h.Atomic(func(tx *stm.Tx) { tx.Store(x, v) }) },
				func() {}
		},
		"core-solo": coreLeg(false),
		"core-ring": coreLeg(true),
	}
	for name, build := range legs {
		ck := &observeHook{Source: clock.New(clock.KindGV4)}
		d, run, helper, closeRT := build(ck)
		x := d.Alloc(1)
		first := true
		var a, b uint64
		run(func(tx tm.Tx) {
			if first {
				first = false
				// Displace x past the snapshot, so the first read extends,
				// and commit to x again inside that extension.
				helper(x, 1)
				ck.hook = func() { helper(x, 2) }
			}
			a = tx.Load(x)
			b = tx.Load(x)
		})
		closeRT()
		if a != b || a != 2 {
			t.Errorf("%s: the committed transaction read x = %d, then %d; want 2 both times", name, a, b)
		}
	}
}

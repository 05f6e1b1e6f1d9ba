package wtstm

import (
	"sync"
	"testing"

	"tlstm/internal/rbtree"
	"tlstm/internal/tm"
	"tlstm/internal/txtrace"
)

func TestReadWriteRoundTrip(t *testing.T) {
	rt := New(14)
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) {
		a = tx.Alloc(2)
		tx.Store(a, 5)
		tx.Store(a+1, 6)
		if tx.Load(a) != 5 || tx.Load(a+1) != 6 {
			t.Error("read-own-write failed")
		}
	})
	rt.Atomic(nil, func(tx *Tx) {
		if tx.Load(a) != 5 || tx.Load(a+1) != 6 {
			t.Error("committed values lost")
		}
	})
}

func TestUndoRestoresOnAbort(t *testing.T) {
	rt := New(14)
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 42)
	// Force one attempt to fail mid-flight via a user panic that must
	// roll back the in-place write.
	func() {
		defer func() { _ = recover() }()
		rt.Atomic(nil, func(tx *Tx) {
			tx.Store(a, 99)
			panic("boom")
		})
	}()
	if got := d.Load(a); got != 42 {
		t.Fatalf("in-place write not undone: %d, want 42", got)
	}
	// The lock must be free again.
	done := make(chan struct{})
	go func() {
		rt.Atomic(nil, func(tx *Tx) { tx.Store(a, 1) })
		close(done)
	}()
	<-done
}

func TestMultipleWritesSameWordUndoOrder(t *testing.T) {
	rt := New(14)
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 7)
	func() {
		defer func() { _ = recover() }()
		rt.Atomic(nil, func(tx *Tx) {
			tx.Store(a, 8)
			tx.Store(a, 9)
			tx.Store(a, 10)
			panic("boom")
		})
	}()
	if got := d.Load(a); got != 7 {
		t.Fatalf("reverse-order undo broken: %d, want 7", got)
	}
}

func TestConcurrentCounter(t *testing.T) {
	rt := New(14)
	var a tm.Addr
	rt.Atomic(nil, func(tx *Tx) { a = tx.Alloc(1) })
	const workers, per = 6, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rt.Atomic(nil, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}()
	}
	wg.Wait()
	if got := rt.Direct().Load(a); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestSnapshotInvariant(t *testing.T) {
	rt := New(14)
	d := rt.Direct()
	x := d.Alloc(1)
	y := d.Alloc(1)
	d.Store(x, 500)
	d.Store(y, 500)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Atomic(nil, func(tx *Tx) {
				vx := tx.Load(x)
				tx.Store(x, vx-1)
				tx.Store(y, tx.Load(y)+1)
			})
		}
	}()
	violations := 0
	for i := 0; i < 300; i++ {
		rt.Atomic(nil, func(tx *Tx) {
			if tx.Load(x)+tx.Load(y) != 1000 {
				violations++
			}
		})
	}
	close(stop)
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d torn snapshots", violations)
	}
}

func TestRBTreeOnWriteThrough(t *testing.T) {
	rt := New(14)
	var tr rbtree.Tree
	rt.Atomic(nil, func(tx *Tx) { tr = rbtree.New(tx) })
	for k := int64(0); k < 200; k++ {
		rt.Atomic(nil, func(tx *Tx) { tr.Insert(tx, k, uint64(k)) })
	}
	for k := int64(0); k < 200; k += 2 {
		rt.Atomic(nil, func(tx *Tx) { tr.Delete(tx, k) })
	}
	d := rt.Direct()
	if msg := tr.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
	if tr.Size(d) != 100 {
		t.Fatalf("Size = %d, want 100", tr.Size(d))
	}
}

func TestBankInvariant(t *testing.T) {
	rt := New(14)
	d := rt.Direct()
	const accounts, initial = 16, 1000
	base := d.Alloc(accounts)
	for i := 0; i < accounts; i++ {
		d.Store(base+tm.Addr(i), initial)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := seed
			next := func() uint64 { s = s*6364136223846793005 + 1; return s >> 33 }
			for i := 0; i < 150; i++ {
				from := base + tm.Addr(next()%accounts)
				to := base + tm.Addr(next()%accounts)
				amt := next() % 9
				rt.Atomic(nil, func(tx *Tx) {
					f := tx.Load(from)
					if from != to && f >= amt {
						tx.Store(from, f-amt)
						tx.Store(to, tx.Load(to)+amt)
					}
				})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += d.Load(base + tm.Addr(i))
	}
	if sum != accounts*initial {
		t.Fatalf("sum = %d, want %d", sum, accounts*initial)
	}
}

// Two writers on one counter: a Load that found the word's version ahead
// of its snapshot used to extend the snapshot and then return the value
// it had sampled *before* extending. A commit landing in between moved
// the word again; the following Store locked it at that newer version,
// which exempted the stale read from commit validation, and the other
// writer's increment was lost. Load now reads again after extending.
func TestLoadRereadsAfterExtension(t *testing.T) {
	rt := New(14)
	a := rt.Direct().Alloc(1)
	const writers, per = 2, 100_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rt.Atomic(nil, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
			}
		}()
	}
	wg.Wait()
	if got := rt.Direct().Load(a); got != writers*per {
		t.Fatalf("counter = %d, want %d (lost updates)", got, writers*per)
	}
}

// The directed interleaving behind the abort increment. A Load brackets
// its word read with two samples of the lock and accepts the value when
// they agree, so with the steps
//
//  1. reader samples the lock: version v
//  2. writer locks the word and stores a dirty value in place; reader
//     reads the dirty value
//  3. writer aborts: undoes the store, releases the lock; reader samples
//     the lock again
//
// a release at the pre-lock version v makes step 3 agree with step 1 and
// the reader accepts a value no transaction committed. The reader's
// three steps are taken by hand here (a real Load cannot be paused
// between them); the writer is a real transaction.
func TestAbortedWriterReleasesAtFreshVersion(t *testing.T) {
	rt := New(14)
	d := rt.Direct()
	a := d.Alloc(1)
	rt.Atomic(nil, func(tx *Tx) { tx.Store(a, 42) })
	l := rt.lockFor(a)

	v1 := l.Load() // step 1
	wrote, read, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		first := true
		rt.Atomic(nil, func(tx *Tx) {
			if !first {
				return // the retry after the abort has nothing to do
			}
			first = false
			tx.Store(a, 99) // step 2
			close(wrote)
			<-read
			tx.abort(txtrace.AbortCM) // step 3
		})
	}()
	<-wrote
	if l.Load() != locked {
		t.Fatal("writer does not hold the word's lock after its store")
	}
	val := rt.Store.LoadWord(a)
	close(read)
	<-done
	v2 := l.Load()

	if val != 99 {
		t.Fatalf("reader saw %d between its two samples, want the dirty 99: the interleaving did not happen", val)
	}
	if v2 == locked || v2 == v1 {
		t.Fatalf("lock reads %d after the abort and %d before the writer locked it: a Load bracketing the dirty value would accept it", v2, v1)
	}
	// The release stamp is an ordinary version: a fresh reader extends to
	// it and sees the undone value.
	rt.Atomic(nil, func(tx *Tx) {
		if got := tx.Load(a); got != 42 {
			t.Errorf("value after the aborted write = %d, want 42", got)
		}
	})
}

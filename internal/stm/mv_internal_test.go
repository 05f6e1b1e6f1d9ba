package stm

import (
	"testing"

	"tlstm/internal/tm"
)

// TestMVReadOnlyLogsNothing pins the "zero validation-loop iterations"
// half of the wait-free claim from inside the package: a committed
// multi-version read-only transaction has an empty read log (there is
// nothing for validation or extension to iterate) and an empty write log.
func TestMVReadOnlyLogsNothing(t *testing.T) {
	rt := New(WithMultiVersion(2))
	d := rt.Direct()
	base := d.Alloc(4)
	for i := 0; i < 4; i++ {
		d.Store(base+tm.Addr(i), uint64(i))
	}
	w := rt.NewWorker()
	var sum uint64
	w.AtomicRO(func(tx *Tx) {
		for i := 0; i < 4; i++ {
			sum += tx.Load(base + tm.Addr(i))
		}
	})
	if sum != 0+1+2+3 {
		t.Fatalf("scan sum = %d, want 6", sum)
	}
	if n := w.tx.readLog.Len(); n != 0 {
		t.Fatalf("mv read-only transaction logged %d reads, want 0", n)
	}
	if n := w.tx.writeLog.Len(); n != 0 {
		t.Fatalf("mv read-only transaction logged %d writes, want 0", n)
	}
	if w.tx.SnapshotExtensions != 0 {
		t.Fatalf("mv read-only transaction extended %d times, want 0", w.tx.SnapshotExtensions)
	}
}

package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tlstm/internal/mem"
	"tlstm/internal/tm"
)

func direct() mem.Direct {
	s := mem.NewStore()
	return mem.Direct{Mem: s, Al: mem.NewAllocator(s)}
}

func TestInsertLookupDelete(t *testing.T) {
	d := direct()
	tr := New(d)
	if !tr.Insert(d, 5, 50) || !tr.Insert(d, 3, 30) || !tr.Insert(d, 8, 80) {
		t.Fatal("fresh inserts must report true")
	}
	if tr.Insert(d, 5, 55) {
		t.Fatal("duplicate insert must report false")
	}
	if v, ok := tr.Lookup(d, 5); !ok || v != 55 {
		t.Fatalf("Lookup(5) = %d,%v; want 55,true", v, ok)
	}
	if tr.Size(d) != 3 {
		t.Fatalf("Size = %d, want 3", tr.Size(d))
	}
	if !tr.Delete(d, 3) {
		t.Fatal("Delete(3) must report true")
	}
	if tr.Delete(d, 3) {
		t.Fatal("Delete(3) twice must report false")
	}
	if tr.Contains(d, 3) {
		t.Fatal("3 still present after delete")
	}
	if msg := tr.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestOracleRandomOps(t *testing.T) {
	d := direct()
	tr := New(d)
	oracle := map[int64]uint64{}
	rng := rand.New(rand.NewSource(1))

	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64() % 1000
			_, existed := oracle[k]
			fresh := tr.Insert(d, k, v)
			if fresh == existed {
				t.Fatalf("op %d: Insert(%d) fresh=%v, oracle existed=%v", i, k, fresh, existed)
			}
			oracle[k] = v
		case 1:
			_, existed := oracle[k]
			removed := tr.Delete(d, k)
			if removed != existed {
				t.Fatalf("op %d: Delete(%d) = %v, oracle %v", i, k, removed, existed)
			}
			delete(oracle, k)
		default:
			want, existed := oracle[k]
			got, ok := tr.Lookup(d, k)
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v; want %d,%v", i, k, got, ok, want, existed)
			}
		}
		if i%500 == 0 {
			if msg := tr.CheckInvariants(d); msg != "" {
				t.Fatalf("op %d: %s", i, msg)
			}
			if tr.Size(d) != len(oracle) {
				t.Fatalf("op %d: Size=%d oracle=%d", i, tr.Size(d), len(oracle))
			}
		}
	}
	if msg := tr.CheckInvariants(d); msg != "" {
		t.Fatal(msg)
	}
}

func TestRangeAscending(t *testing.T) {
	d := direct()
	tr := New(d)
	keys := []int64{9, 1, 7, 3, 5, 2, 8, 4, 6}
	for _, k := range keys {
		tr.Insert(d, k, uint64(k*10))
	}
	var got []int64
	tr.Range(d, 2, 7, func(k int64, v uint64) bool {
		got = append(got, k)
		if v != uint64(k*10) {
			t.Fatalf("value mismatch at %d", k)
		}
		return true
	})
	want := []int64{2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Range returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range returned %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	d := direct()
	tr := New(d)
	for k := int64(0); k < 20; k++ {
		tr.Insert(d, k, 1)
	}
	count := 0
	tr.Range(d, 0, 19, func(k int64, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestMin(t *testing.T) {
	d := direct()
	tr := New(d)
	if _, _, ok := tr.Min(d); ok {
		t.Fatal("Min of empty tree should be not-ok")
	}
	for _, k := range []int64{10, 20, 30} {
		tr.Insert(d, k, uint64(k))
	}
	if k, _, ok := tr.Min(d); !ok || k != 10 {
		t.Fatalf("Min = %d,%v; want 10,true", k, ok)
	}
}

func TestDeleteFreesNodes(t *testing.T) {
	d := direct()
	tr := New(d)
	live0 := d.Al.LiveBlocks()
	for k := int64(0); k < 100; k++ {
		tr.Insert(d, k, 1)
	}
	for k := int64(0); k < 100; k++ {
		tr.Delete(d, k)
	}
	if got := d.Al.LiveBlocks(); got != live0 {
		t.Fatalf("LiveBlocks = %d, want %d (deleted nodes must be freed)", got, live0)
	}
}

// Property: after any sequence of inserts and deletes the tree stays a
// valid red-black tree and matches a sorted-keys oracle.
func TestQuickInvariants(t *testing.T) {
	f := func(ins []int16, del []int16) bool {
		d := direct()
		tr := New(d)
		oracle := map[int64]bool{}
		for _, k := range ins {
			tr.Insert(d, int64(k), 1)
			oracle[int64(k)] = true
		}
		for _, k := range del {
			tr.Delete(d, int64(k))
			delete(oracle, int64(k))
		}
		if msg := tr.CheckInvariants(d); msg != "" {
			t.Logf("invariant: %s", msg)
			return false
		}
		var want []int64
		for k := range oracle {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		tr.Range(d, -40000, 40000, func(k int64, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

var _ = tm.NilAddr

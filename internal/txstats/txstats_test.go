package txstats

import (
	"sync"
	"testing"
)

type counters struct {
	A uint64
	B uint64
}

func TestMergeAndSnapshot(t *testing.T) {
	var agg Aggregate[counters]
	agg.Merge(counters{A: 1, B: 2})
	agg.Merge(counters{A: 10, B: 20})
	got := agg.Snapshot()
	if got.A != 11 || got.B != 22 {
		t.Fatalf("snapshot = %+v, want {11 22}", got)
	}
}

func TestConcurrentMerges(t *testing.T) {
	const workers = 16
	const perWorker = 500

	var agg Aggregate[counters]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker accumulates unshared, merges once at exit —
			// the intended usage pattern.
			var shard counters
			for i := 0; i < perWorker; i++ {
				shard.A++
				shard.B += 2
			}
			agg.Merge(shard)
		}()
	}
	wg.Wait()
	got := agg.Snapshot()
	if got.A != workers*perWorker || got.B != 2*workers*perWorker {
		t.Fatalf("snapshot = %+v, want {%d %d}", got, workers*perWorker, 2*workers*perWorker)
	}
}

type Inner struct {
	MVReads uint64
	Lat     Hist
}

type outer struct {
	TxCommitted uint64
	Inner
	CMAbortsSelf uint64
}

func TestAddSubEachWalkTheStruct(t *testing.T) {
	a := outer{TxCommitted: 3, Inner: Inner{MVReads: 5}, CMAbortsSelf: 7}
	a.Lat.Observe(9)
	sum := a
	Add(&sum, a)
	if sum.TxCommitted != 6 || sum.MVReads != 10 || sum.CMAbortsSelf != 14 || sum.Lat.Total() != 2 {
		t.Fatalf("Add: %+v", sum)
	}
	if d := Sub(sum, a); d != a {
		t.Fatalf("Sub: %+v, want %+v", d, a)
	}
	var names []string
	Each(&a, func(name string, n uint64) { names = append(names, name) },
		func(name string, h Hist) { names = append(names, name+"[]") })
	want := []string{"txCommitted", "mvReads", "lat[]", "cmAbortsSelf"}
	if len(names) != len(want) {
		t.Fatalf("Each names %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Each names %v, want %v", names, want)
		}
	}
}

func TestLowerCamel(t *testing.T) {
	for field, want := range map[string]string{
		"Work": "work", "TxCommitted": "txCommitted", "RestartWAR": "restartWAR",
		"CMAbortsSelf": "cmAbortsSelf", "MVReads": "mvReads", "ClockCASRetries": "clockCASRetries", "WAR": "war",
	} {
		if got := lowerCamel(field); got != want {
			t.Errorf("lowerCamel(%q) = %q, want %q", field, got, want)
		}
	}
}

// A field the walk cannot fold must panic, never be skipped: a skipped
// field would silently read 0 in every aggregate.
func TestNonCounterFieldPanics(t *testing.T) {
	type named struct{ N Inner } // a struct that is not embedded
	for _, tc := range []struct {
		name string
		add  func()
	}{
		{"int", func() { var s struct{ A, B int }; Add(&s, s) }},
		{"unexported", func() { var s struct{ A, b uint64 }; Add(&s, s) }},
		{"non-embedded struct", func() { var s named; Add(&s, s) }},
		{"slice", func() { var s struct{ A []uint64 }; _ = Sub(s, s) }},
		{"not a struct", func() { var h Hist; Add(&h, h) }},
		{"each", func() { var s struct{ A float64 }; Each(s, func(string, uint64) {}, func(string, Hist) {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.add()
		})
	}
}

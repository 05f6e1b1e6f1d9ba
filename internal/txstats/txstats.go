// Package txstats implements the per-thread statistics idiom used by
// mature TM runtimes (e.g. the per-thread tm_stats_t counters that
// hardware-TM harnesses merge at thread exit): every worker accumulates
// its execution counters into a private, unshared shard and folds the
// shard into a global aggregate only at synchronization boundaries
// (worker exit, Sync). The hot path — one commit, one abort, one work
// charge — therefore never touches a shared cache line, and the only
// mutex in the system guards the cold merge.
//
// A stats struct is its own counter table: its fields are uint64
// counters, Hists and embedded structs of those, and Add, Sub and Each
// walk it, so a counter is declared once and is folded, differenced and
// reported wherever the struct is. Any other field panics there. The
// walk uses reflection: every caller is cold (Sync, worker exit,
// reports), never a transaction.
package txstats

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unicode"
)

var histType = reflect.TypeOf(Hist{})

// fieldsOf caches fields per stats struct type.
var fieldsOf sync.Map

// fields lists the counters and histograms of stats struct type t in
// declaration order, those of embedded structs in their place. Any other
// field panics. A field hidden by a shallower one of the same name is
// not reached, so stats structs keep their field names distinct.
func fields(t reflect.Type) []reflect.StructField {
	if out, ok := fieldsOf.Load(t); ok {
		return out.([]reflect.StructField)
	}
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(t) {
		switch {
		case f.IsExported() && (f.Type.Kind() == reflect.Uint64 || f.Type == histType):
			out = append(out, f)
		case !f.IsExported() || !f.Anonymous || f.Type.Kind() != reflect.Struct:
			panic(fmt.Sprintf("txstats: field %s %s of %s is not a counter, a Hist or an embedded stats struct", f.Name, f.Type, t))
		}
	}
	fieldsOf.Store(t, out)
	return out
}

// zip sets every counter of dst to op of a's and b's.
func zip(dst, a, b reflect.Value, op func(x, y uint64) uint64) {
	for _, f := range fields(a.Type()) {
		d, x, y := dst.FieldByIndex(f.Index), a.FieldByIndex(f.Index), b.FieldByIndex(f.Index)
		if f.Type != histType {
			d.SetUint(op(x.Uint(), y.Uint()))
			continue
		}
		for i := 0; i < HistBuckets; i++ {
			d.Index(i).SetUint(op(x.Index(i).Uint(), y.Index(i).Uint()))
		}
	}
}

// Add folds src into *dst, counter by counter.
func Add[S any](dst *S, src S) {
	d := reflect.ValueOf(dst).Elem()
	zip(d, d, reflect.ValueOf(src), func(x, y uint64) uint64 { return x + y })
}

// Sub returns the counter-wise difference a−b, meaningful when b is an
// earlier snapshot of a (every counter is monotonic).
func Sub[S any](a, b S) S {
	var d S
	zip(reflect.ValueOf(&d).Elem(), reflect.ValueOf(a), reflect.ValueOf(b), func(x, y uint64) uint64 { return x - y })
	return d
}

// Each calls counter for every uint64 counter and hist for every Hist of
// the stats struct v (a value or a pointer to one), in declaration
// order, flattening embedded structs. A field's name is its Go name in
// lowerCamel case, a leading acronym lower-cased: TxCommitted is
// txCommitted, CMAbortsSelf cmAbortsSelf, MVReads mvReads.
func Each(v any, counter func(name string, n uint64), hist func(name string, h Hist)) {
	s := reflect.Indirect(reflect.ValueOf(v))
	for _, f := range fields(s.Type()) {
		if f.Type == histType {
			hist(lowerCamel(f.Name), s.FieldByIndex(f.Index).Interface().(Hist))
		} else {
			counter(lowerCamel(f.Name), s.FieldByIndex(f.Index).Uint())
		}
	}
}

// lowerCamel is the name Each reports for the Go field name field.
func lowerCamel(field string) string {
	n := strings.IndexFunc(field, unicode.IsLower)
	switch {
	case n < 0:
		return strings.ToLower(field)
	case n > 1:
		n-- // the acronym's last capital starts the next word: CMAborts
	}
	return strings.ToLower(field[:n]) + field[n:]
}

// Aggregate is the global side of the sharding idiom: a mutex-guarded
// total that worker shards are merged into. The zero value is ready to
// use. All methods are safe for concurrent use; the intended pattern is
// that Merge is called rarely (per worker exit or per Sync), never per
// transaction.
type Aggregate[S any] struct {
	mu    sync.Mutex
	total S
}

// Merge folds one worker's shard into the global total.
func (a *Aggregate[S]) Merge(shard S) {
	a.mu.Lock()
	Add(&a.total, shard)
	a.mu.Unlock()
}

// Snapshot returns a copy of the global total.
func (a *Aggregate[S]) Snapshot() S {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

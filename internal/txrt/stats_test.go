package txrt_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/txrt"
	"tlstm/internal/txstats"
)

// fill sets every exported uint64 leaf under v (through embedded and
// nested structs and arrays) to a distinct non-zero value.
func fill(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), next)
			}
		}
	default:
		panic(fmt.Sprintf("stats field of kind %s: teach the fold test about it", v.Kind()))
	}
}

// leaves flattens the exported uint64 leaves under v into path → value.
func leaves(v reflect.Value, path string, out map[string]uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		out[path] = v.Uint()
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				leaves(v.Field(i), path+"."+f.Name, out)
			}
		}
	}
}

// TestStatsFoldIsComplete is the guard against adding a counter and
// forgetting to fold it: for every stats struct, Add must carry every
// exported field and Minus must undo it. A field either walk missed
// would read 0 here instead of in a sweep column.
func TestStatsFoldIsComplete(t *testing.T) {
	for _, zero := range []any{txrt.Counters{}, txrt.Stats{}, core.Stats{}} {
		typ := reflect.TypeOf(zero)
		t.Run(typ.String(), func(t *testing.T) {
			o := reflect.New(typ)
			var n uint64
			fill(o.Elem(), &n)
			want := map[string]uint64{}
			leaves(o.Elem(), typ.Name(), want)
			if len(want) < 100 {
				t.Fatalf("only %d leaves filled: the walk is not reaching the fields", len(want))
			}

			sum := reflect.New(typ)
			add := sum.MethodByName("Add")
			add.Call([]reflect.Value{o.Elem()})
			add.Call([]reflect.Value{o.Elem()})
			got := map[string]uint64{}
			leaves(sum.Elem(), typ.Name(), got)
			for k, w := range want {
				if got[k] != 2*w {
					t.Errorf("after Add twice, %s = %d, want %d (field not folded?)", k, got[k], 2*w)
				}
			}

			diff := sum.Elem().MethodByName("Minus").Call([]reflect.Value{o.Elem()})[0]
			got = map[string]uint64{}
			leaves(diff, typ.Name(), got)
			for k, w := range want {
				if got[k] != w {
					t.Errorf("after Minus, %s = %d, want %d (field not differenced?)", k, got[k], w)
				}
			}
		})
	}
}

// firstWords appends, for every counter and histogram under v (through
// embedded structs), its first word: the counter, or a Hist's bucket 0.
// After fill those words are distinct, so each names its field.
func firstWords(v reflect.Value, out *[]uint64) {
	switch {
	case v.Type() == reflect.TypeOf(txstats.Hist{}):
		*out = append(*out, v.Index(0).Uint())
	case v.Kind() == reflect.Uint64:
		*out = append(*out, v.Uint())
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				firstWords(v.Field(i), out)
			}
		}
	}
}

// TestEachNamesEveryFieldOnce: txstats.Each, which the live metrics and
// the stress report are built from, reaches every exported counter and
// histogram of each stats struct exactly once, under a distinct name.
func TestEachNamesEveryFieldOnce(t *testing.T) {
	for _, zero := range []any{txrt.Counters{}, txrt.Stats{}, core.Stats{}} {
		typ := reflect.TypeOf(zero)
		t.Run(typ.String(), func(t *testing.T) {
			v := reflect.New(typ)
			var n uint64
			fill(v.Elem(), &n)
			var want []uint64
			firstWords(v.Elem(), &want)

			var got []uint64
			names := map[string]bool{}
			see := func(name string, w uint64) {
				if names[name] {
					t.Errorf("name %q reported twice", name)
				}
				names[name] = true
				got = append(got, w)
			}
			txstats.Each(v.Interface(), see, func(name string, h txstats.Hist) { see(name, h[0]) })
			if !slices.Equal(got, want) {
				t.Fatalf("Each reported %d fields %v, want %d %v", len(got), got, len(want), want)
			}
		})
	}
}
